package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"

	"provirt/internal/obs"
)

// metricDef names one reported metric and its unit. Directions and
// bounds live in BENCHMARK.json only; the test pins the names and
// units here to that file.
type metricDef struct{ name, unit string }

// endToEnd is what every workload reports with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rep_ms", "ms"},
	{"alloc_mb_per_rep", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what every workload reports from the traced pass. A
// metric whose layer a workload does not exercise, or whose probe
// belongs to another workload, reads 0 there.
var perLayer = []metricDef{
	// World build against world run (adcirc_scaling, switch_msg).
	{"ampi.newworld_ms_per_rep", "ms"},
	{"core.setup_us_per_rank", "us"},
	{"ampi.run_ms_per_rep", "ms"},
	{"ampi.migrated_mb_per_rep", "MB"},
	{"mem.host_bytes_per_model_byte", "ratio"},
	{"lb.rebalance_us", "us"},
	{"sweep.par2_speedup", "ratio"},
	// Heap snapshots (probes on adcirc_scaling; counters on churn_recovery).
	{"mem.serialize_full_mb_per_s", "MB/s"},
	{"mem.serialize_delta_us", "us"},
	{"mem.restore_us", "us"},
	{"mem.alloc_free_ns", "ns"},
	{"mem.blocks_reused_share", "ratio"},
	{"mem.snapshot_delta_mb_per_rep", "MB"},
	// Threads, engine and matching (switch_msg).
	{"ult.switch_ns", "ns"},
	{"ult.allocs_per_switch", "count"},
	{"ult.ping_share_of_rep", "ratio"},
	{"ult.goroutines_left_per_rep", "count"},
	{"sim.event_ns", "ns"},
	{"sim.events_per_rep", "count"},
	{"ampi.msg_event_ns", "ns"},
	{"ampi.match_probe_depth_mean", "count"},
	{"ampi.unexpected_per_rep", "count"},
	{"trace.recorder_overhead_pct", "%"},
	// Flat world (flat_scale).
	{"sim.flat_event_ns", "ns"},
	{"ampi.flat_build_ms", "ms"},
	{"ampi.flat_allreduce_ms", "ms"},
	{"ampi.flat_storm_ms", "ms"},
	{"ampi.flat_host_bytes_per_rank", "B"},
	{"sim.par2_rep_ms", "ms"},
	{"sim.par2_windows", "count"},
	{"sim.cross_domain_events", "count"},
	// Supervisors (churn_recovery).
	{"ft.run_ms", "ms"},
	{"ft.elastic_ms", "ms"},
	{"ft.recoveries_per_rep", "count"},
	{"ft.drains_per_rep", "count"},
	{"ft.restored_mb_per_rep", "MB"},
	// Spec codec, result store and server (serve_sweep).
	{"scenario.decode_us", "us"},
	{"scenario.validate_us", "us"},
	{"scenario.hash_us", "us"},
	{"scenario.encode_us", "us"},
	{"resultstore.put_us", "us"},
	{"resultstore.get_mem_us", "us"},
	{"resultstore.get_disk_us", "us"},
	{"resultstore.evictions_warm", "count"},
	{"resultstore.evictions_disk", "count"},
	{"serve.cold_points_per_s", "1/s"},
	{"serve.cold_req_ms", "ms"},
	{"serve.warm_req_p50_ms", "ms"},
	{"serve.warm_req_p99_ms", "ms"},
	{"serve.disk_req_p50_ms", "ms"},
	{"serve.warm_overhead_ms", "ms"},
	{"serve.cache_hit_share", "ratio"},
	{"serve.dedup_join_share", "ratio"},
	{"serve.dedup_executed_per_storm", "count"},
	{"serve.queue_depth_highwater", "count"},
	{"serve.point_errors", "count"},
	// Every workload.
	{"runtime.cpu_user_s", "s"},
	{"runtime.cpu_sys_s", "s"},
	{"runtime.gc_cycles_per_rep", "count"},
	{"runtime.mallocs_per_rep", "count"},
	{"runtime.heap_retained_mb", "MB"},
	{"bench.trace_overhead_pct", "%"},
}

// median returns the middle of the values (mean of the two middle ones
// for an even count), NaN for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile by nearest rank, and how many
// samples lie beyond it.
func percentile(v []float64, p float64) (value float64, beyond int) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s) - 1 - i
}

// quartiles matches Python's statistics.quantiles(v, n=4), the rule the
// acceptance check is stated in. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// obsValues reads every sample of the registry the way a scrape would:
// the program exports its counts as Prometheus text, and that is the
// interface the benchmark reads them through.
func obsValues(r *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	_ = r.WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func obsDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
