package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Export formats for a recorded event stream. Both writers are
// deterministic down to the byte: fields appear in a fixed order and
// numbers are formatted with explicit precision, so the same event
// stream always serializes identically. Combined with the determinism
// of the stream itself, a trace file is a reproducible artifact: two
// runs of the same configuration — serial or inside a parallel sweep —
// produce identical files.

// writeEventJSONL writes one event in the canonical JSONL encoding.
// WriteJSONL and a streaming Recorder both go through it, so a
// streamed trace of a run is byte-identical to the retained one. The
// "comm" column is always 0: every message travels on MPI_COMM_WORLD,
// and the column stays so existing traces and their readers keep one
// format.
func writeEventJSONL(bw *bufio.Writer, ev Event) error {
	_, err := fmt.Fprintf(bw,
		`{"t_ns":%d,"dur_ns":%d,"kind":%q,"pe":%d,"vp":%d,"peer":%d,"tag":%d,"aux":%d,"comm":0,"bytes":%d}`+"\n",
		ev.Time.Nanoseconds(), ev.Dur.Nanoseconds(), ev.Kind.String(),
		ev.PE, ev.VP, ev.Peer, ev.Tag, ev.Aux, ev.Bytes)
	return err
}

// WriteJSONL writes one JSON object per event, every field present and
// in a fixed order.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		if err := writeEventJSONL(bw, ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Synthetic pids for the Chrome trace-event export. Each virtual rank
// is a "process" (pid = VP+1) so its compute/comm slices group under
// one named track; each PE is a process in a separate id range; the
// network and filesystem get one process each for in-flight transfers.
const (
	chromeRankBase = 1
	chromePEBase   = 100001
	chromeNetPID   = 900001
	chromeFSPID    = 900002
)

// us renders a virtual-time duration in the microsecond unit the
// Chrome trace-event format specifies, keeping nanosecond precision.
func us(d int64) string {
	return strconv.FormatFloat(float64(d)/1e3, 'f', 3, 64)
}

// chromeWriter assembles the trace-event JSON array.
type chromeWriter struct {
	bw    *bufio.Writer
	first bool
	err   error
}

func (cw *chromeWriter) emit(line string) {
	if cw.err != nil {
		return
	}
	sep := ",\n"
	if cw.first {
		sep = "\n"
		cw.first = false
	}
	if _, err := cw.bw.WriteString(sep + line); err != nil {
		cw.err = err
	}
}

func (cw *chromeWriter) meta(pid int, name string, sortIndex int) {
	cw.emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%q}}`, pid, name))
	cw.emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"process_sort_index","args":{"sort_index":%d}}`, pid, sortIndex))
}

func (cw *chromeWriter) slice(pid, tid int, name, cat string, t, dur int64, args string) {
	if args == "" {
		args = "{}"
	}
	cw.emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"name":%q,"cat":%q,"ts":%s,"dur":%s,"args":%s}`,
		pid, tid, name, cat, us(t), us(dur), args))
}

func (cw *chromeWriter) instant(pid, tid int, name, cat string, t int64, args string) {
	if args == "" {
		args = "{}"
	}
	cw.emit(fmt.Sprintf(`{"ph":"i","pid":%d,"tid":%d,"name":%q,"cat":%q,"ts":%s,"s":"t","args":%s}`,
		pid, tid, name, cat, us(t), args))
}

// async emits a begin/end pair for spans that may overlap on one track
// (messages in flight share a link; Perfetto renders async events on
// their own nested lanes).
func (cw *chromeWriter) async(pid int, id int, name, cat string, t, dur int64, args string) {
	if args == "" {
		args = "{}"
	}
	cw.emit(fmt.Sprintf(`{"ph":"b","pid":%d,"tid":0,"id":%d,"name":%q,"cat":%q,"ts":%s,"args":%s}`,
		pid, id, name, cat, us(t), args))
	cw.emit(fmt.Sprintf(`{"ph":"e","pid":%d,"tid":0,"id":%d,"name":%q,"cat":%q,"ts":%s}`,
		pid, id, name, cat, us(t+dur)))
}

// WriteChrome writes the events as a Chrome trace-event JSON array,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each
// virtual rank appears as a named process with a "state" thread
// (compute and wait slices, message instants) and an "mpi" thread
// (collective spans, which may partially overlap scheduling quanta);
// each PE appears as a process whose single thread carries setup,
// per-VP execution quanta, context switches, and idle gaps; network
// flights and filesystem transfers render as async spans.
func WriteChrome(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("["); err != nil {
		return err
	}
	cw := &chromeWriter{bw: bw, first: true}

	// Name every rank and PE track that appears in the stream, ranks
	// first, in id order.
	ranks := map[int32]bool{}
	pes := map[int32]bool{}
	hasNet, hasFS := false, false
	for _, ev := range events {
		if ev.VP >= 0 {
			ranks[ev.VP] = true
		}
		switch ev.Kind {
		case KindLink, KindMigration, KindRunEnd, KindFault, KindDetect:
			hasNet = true
		case KindFSIO:
			hasFS = true
		default:
			if ev.PE >= 0 {
				pes[ev.PE] = true
			}
		}
	}
	for _, vp := range sortedKeys(ranks) {
		cw.meta(chromeRankBase+int(vp), fmt.Sprintf("rank %d", vp), int(vp))
	}
	for _, pe := range sortedKeys(pes) {
		cw.meta(chromePEBase+int(pe), fmt.Sprintf("PE %d", pe), 100000+int(pe))
	}
	if hasNet {
		cw.meta(chromeNetPID, "network", 900000)
	}
	if hasFS {
		cw.meta(chromeFSPID, "shared fs", 900001)
	}

	asyncID := 0
	for _, ev := range events {
		t, d := ev.Time.Nanoseconds(), ev.Dur.Nanoseconds()
		rankPID := chromeRankBase + int(ev.VP)
		pePID := chromePEBase + int(ev.PE)
		switch ev.Kind {
		case KindSetup:
			cw.slice(pePID, 0, "setup", "runtime", t, d, "")
		case KindIdle:
			cw.slice(pePID, 0, "idle", "idle", t, d, "")
		case KindSwitch:
			cw.slice(pePID, 0, fmt.Sprintf("switch to vp %d", ev.VP), "runtime", t, d, "")
		case KindExec:
			cw.slice(pePID, 0, fmt.Sprintf("vp %d", ev.VP), "compute", t, d, "")
			cw.slice(rankPID, 0, "compute", "compute", t, d,
				fmt.Sprintf(`{"pe":%d}`, ev.PE))
		case KindWait:
			name := "wait"
			if ev.Aux == WaitMigrate {
				name = "migrate_stall"
			}
			cw.slice(rankPID, 0, name, "comm", t, d,
				fmt.Sprintf(`{"src":%d,"tag":%d}`, ev.Peer, ev.Tag))
		case KindColl:
			cw.slice(rankPID, 1, CollName(ev.Aux), "comm", t, d,
				fmt.Sprintf(`{"root":%d}`, ev.Peer))
		case KindSendPost:
			cw.instant(rankPID, 0, "send", "comm", t,
				fmt.Sprintf(`{"dst":%d,"tag":%d,"bytes":%d}`, ev.Peer, ev.Tag, ev.Bytes))
		case KindRecvPost:
			cw.instant(rankPID, 0, "recv_post", "comm", t,
				fmt.Sprintf(`{"src":%d,"tag":%d}`, ev.Peer, ev.Tag))
		case KindMatch:
			cw.instant(rankPID, 0, "match", "comm", t,
				fmt.Sprintf(`{"src":%d,"tag":%d}`, ev.Peer, ev.Tag))
		case KindUnexpected:
			cw.instant(rankPID, 0, "unexpected", "comm", t,
				fmt.Sprintf(`{"src":%d,"tag":%d}`, ev.Peer, ev.Tag))
		case KindMigration:
			cw.async(chromeNetPID, asyncID, fmt.Sprintf("migrate vp %d: pe %d -> %d", ev.VP, ev.PE, ev.Peer),
				"migration", t, d, fmt.Sprintf(`{"bytes":%d}`, ev.Bytes))
			asyncID++
		case KindLink:
			cw.async(chromeNetPID, asyncID, fmt.Sprintf("%s pe %d -> %d", TierName(ev.Aux), ev.PE, ev.Peer),
				"comm", t, d, fmt.Sprintf(`{"bytes":%d}`, ev.Bytes))
			asyncID++
		case KindFSIO:
			cw.async(chromeFSPID, asyncID, "fs transfer", "io", t, d,
				fmt.Sprintf(`{"bytes":%d}`, ev.Bytes))
			asyncID++
		case KindRunEnd:
			cw.instant(chromeNetPID, 0, "run_end", "runtime", t, "")
		case KindFault:
			cw.instant(chromeNetPID, 0, "node_crash", "fault", t,
				fmt.Sprintf(`{"node":%d,"killed":%d}`, ev.Peer, ev.Bytes))
		case KindDetect:
			cw.instant(chromeNetPID, 0, "detect", "fault", t,
				fmt.Sprintf(`{"node":%d}`, ev.Peer))
		case KindRecover:
			cw.slice(rankPID, 0, "restore", "fault", t, d,
				fmt.Sprintf(`{"bytes":%d}`, ev.Bytes))
		}
	}
	if cw.err != nil {
		return cw.err
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func sortedKeys(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
