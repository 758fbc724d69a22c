package trace

import (
	"fmt"
	"time"
)

// Profile condenses a recorded event stream into the per-rank and
// per-PE virtual-time breakdown Projections users read first: where
// did each virtual rank spend the run — computing, blocked on
// messages, paying runtime overhead, or waiting for a core?

// RankProfile is one virtual rank's activity breakdown. Compute,
// Blocked, Overhead, and Idle partition the makespan: Compute sums the
// rank's execution quanta, Blocked its suspended time (message waits
// and migration stalls), Overhead the context-switch cost of switching
// to it, and Idle the remainder — ready-queue delay plus time before
// adoption and after completion. Collective and MigrateStall are
// inclusive views (a collective span contains compute and waits) and
// deliberately not part of the partition.
type RankProfile struct {
	VP       int
	Compute  time.Duration
	Blocked  time.Duration
	Overhead time.Duration
	Idle     time.Duration

	Collective   time.Duration
	MigrateStall time.Duration

	Sends, Recvs, Colls uint64
	Migrations          int
	// End is the virtual time of the rank's last recorded activity.
	End time.Duration
}

// PEProfile is one processing element's breakdown: Setup + Busy +
// Switch + Idle partition the makespan.
type PEProfile struct {
	PE       int
	Setup    time.Duration
	Busy     time.Duration
	Switch   time.Duration
	Idle     time.Duration
	Switches uint64
}

// Profile is the whole run's utilization summary.
type Profile struct {
	// Span is the run's makespan in virtual time.
	Span  time.Duration
	Ranks []RankProfile
	PEs   []PEProfile
	// Events is the number of events profiled.
	Events int
}

// BuildProfile condenses an event stream (in emission order) into a
// profile. Ranks and PEs are discovered from the events themselves.
func BuildProfile(events []Event) *Profile {
	p := &Profile{Events: len(events)}
	ranks := map[int32]*RankProfile{}
	pes := map[int32]*PEProfile{}
	rank := func(vp int32) *RankProfile {
		r := ranks[vp]
		if r == nil {
			r = &RankProfile{VP: int(vp)}
			ranks[vp] = r
		}
		return r
	}
	pe := func(id int32) *PEProfile {
		q := pes[id]
		if q == nil {
			q = &PEProfile{PE: int(id)}
			pes[id] = q
		}
		return q
	}
	for _, ev := range events {
		if end := ev.Time + ev.Dur; end > p.Span {
			p.Span = end
		}
		switch ev.Kind {
		case KindSetup:
			pe(ev.PE).Setup += ev.Dur
		case KindIdle:
			pe(ev.PE).Idle += ev.Dur
		case KindSwitch:
			q := pe(ev.PE)
			q.Switch += ev.Dur
			q.Switches++
			rank(ev.VP).Overhead += ev.Dur
		case KindExec:
			pe(ev.PE).Busy += ev.Dur
			r := rank(ev.VP)
			r.Compute += ev.Dur
			if end := ev.Time + ev.Dur; end > r.End {
				r.End = end
			}
		case KindWait:
			r := rank(ev.VP)
			r.Blocked += ev.Dur
			if ev.Aux == WaitMigrate {
				r.MigrateStall += ev.Dur
			}
			if end := ev.Time + ev.Dur; end > r.End {
				r.End = end
			}
		case KindColl:
			r := rank(ev.VP)
			r.Collective += ev.Dur
			r.Colls++
		case KindSendPost:
			rank(ev.VP).Sends++
		case KindRecvPost:
			rank(ev.VP).Recvs++
		case KindMigration:
			rank(ev.VP).Migrations++
		}
	}
	// Idle is the partition remainder; PE idle events only cover gaps
	// between scheduler passes, so fold the trailing/leading remainder
	// in the same way.
	for _, r := range ranks {
		if idle := p.Span - r.Compute - r.Blocked - r.Overhead; idle > 0 {
			r.Idle = idle
		}
	}
	for _, q := range pes {
		q.Idle = 0
		if idle := p.Span - q.Setup - q.Busy - q.Switch; idle > 0 {
			q.Idle = idle
		}
	}
	for _, vp := range sortedKeys(boolKeys(ranks)) {
		p.Ranks = append(p.Ranks, *ranks[vp])
	}
	for _, id := range sortedKeys(boolKeys(pes)) {
		p.PEs = append(p.PEs, *pes[id])
	}
	return p
}

func boolKeys[V any](m map[int32]V) map[int32]bool {
	out := make(map[int32]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// CriticalPath summarizes the rank that bounds the makespan: the one
// whose recorded activity finishes last. Its blocked and idle time is
// the headroom a better schedule or privatization method could
// recover; its compute time is a lower bound no method can beat.
type CriticalPath struct {
	VP  int
	End time.Duration
	// Breakdown of the critical rank.
	Compute, Blocked, Overhead, Idle time.Duration
	// Utilization is Compute / End.
	Utilization float64
}

// CriticalPath picks the last-finishing rank. Ties break toward the
// lowest VP so the answer is deterministic.
func (p *Profile) CriticalPath() CriticalPath {
	var cp CriticalPath
	cp.VP = -1
	for i := range p.Ranks {
		r := &p.Ranks[i]
		if cp.VP == -1 || r.End > cp.End {
			cp = CriticalPath{VP: r.VP, End: r.End,
				Compute: r.Compute, Blocked: r.Blocked, Overhead: r.Overhead, Idle: r.Idle}
		}
	}
	if cp.End > 0 {
		cp.Utilization = float64(cp.Compute) / float64(cp.End)
	}
	return cp
}

// Summary renders the critical path as one line.
func (cp CriticalPath) Summary() string {
	if cp.VP < 0 {
		return "critical path: no rank activity recorded"
	}
	return fmt.Sprintf(
		"critical path: rank %d finishes at %s (%.0f%% compute: %s compute, %s blocked, %s overhead, %s idle)",
		cp.VP, FormatDuration(cp.End), cp.Utilization*100,
		FormatDuration(cp.Compute), FormatDuration(cp.Blocked),
		FormatDuration(cp.Overhead), FormatDuration(cp.Idle))
}

// RankTable renders the per-rank utilization profile.
func (p *Profile) RankTable() *Table {
	t := NewTable(
		fmt.Sprintf("per-rank utilization over %s of virtual time", FormatDuration(p.Span)),
		"VP", "Compute", "Blocked", "Overhead", "Idle", "Util", "Coll", "Sends", "Recvs", "Migr")
	for _, r := range p.Ranks {
		util := 0.0
		if p.Span > 0 {
			util = float64(r.Compute) / float64(p.Span)
		}
		t.AddRow(
			fmt.Sprint(r.VP),
			FormatDuration(r.Compute),
			FormatDuration(r.Blocked),
			FormatDuration(r.Overhead),
			FormatDuration(r.Idle),
			fmt.Sprintf("%.0f%%", util*100),
			FormatDuration(r.Collective),
			fmt.Sprint(r.Sends),
			fmt.Sprint(r.Recvs),
			fmt.Sprint(r.Migrations),
		)
	}
	return t
}

// PETable renders the per-PE utilization profile.
func (p *Profile) PETable() *Table {
	t := NewTable(
		fmt.Sprintf("per-PE utilization over %s of virtual time", FormatDuration(p.Span)),
		"PE", "Setup", "Busy", "Switch", "Idle", "Util", "Switches")
	for _, q := range p.PEs {
		util := 0.0
		if p.Span > 0 {
			util = float64(q.Busy) / float64(p.Span)
		}
		t.AddRow(
			fmt.Sprint(q.PE),
			FormatDuration(q.Setup),
			FormatDuration(q.Busy),
			FormatDuration(q.Switch),
			FormatDuration(q.Idle),
			fmt.Sprintf("%.0f%%", util*100),
			fmt.Sprint(q.Switches),
		)
	}
	return t
}
