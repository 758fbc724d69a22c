package harness

import (
	"fmt"

	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// AdcircPoint is one (cores, ratio) measurement of the ADCIRC strong-
// scaling study.
type AdcircPoint struct {
	Cores int
	Ratio int // virtualization ratio (VPs per core); 0 marks baseline
	LB    bool
	Time  sim.Time
}

// AdcircRow is one core count's summary: the baseline and the best
// virtualized+balanced result (Table 2's "speedup of best performing
// virtualization ratio").
type AdcircRow struct {
	Cores     int
	Baseline  sim.Time
	Best      sim.Time
	BestRatio int
	// SpeedupPct is (Baseline/Best - 1) * 100.
	SpeedupPct float64
	Points     []AdcircPoint
}

// Table2Cores are the measured core counts.
func Table2Cores() []int { return []int{1, 2, 4, 8, 16, 32, 64} }

// AdcircRatios are the virtualization ratios swept per core count.
func AdcircRatios() []int { return []int{2, 4, 8} }

// AdcircScaling runs the full strong-scaling study of §4.6: for each
// core count, an unvirtualized/unbalanced baseline plus each
// virtualization ratio with GreedyRefineLB. It reproduces Table 2 (best
// speedup per core count) and Fig. 9 (the full time series) for the
// adcirc workload's default or quick cfg. A nil cores selects Table2Cores.
func AdcircScaling(o Opts, cfg scenario.AdcircConfig, cores []int) ([]AdcircRow, *trace.Table, *trace.Table, error) {
	params, err := scenario.AdcircParams(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return adcircScaling(o, params, cores)
}

// adcircPoints is the (cores x ratio) grid: per core count, the
// unbalanced baseline at ratio 1, which never calls AMPI_Migrate, then
// each of AdcircRatios with GreedyRefineLB.
func adcircPoints(params scenario.WorkloadParams, cores []int) []point {
	var points []point
	at := func(c, ratio int, balancer lb.Strategy) point {
		return point{fmt.Sprintf("cores=%d,ratio=%d", c, ratio), scenario.Spec{
			Machine:        machineShape(1, 1, c),
			VPs:            c * ratio,
			Method:         core.KindPIEglobals,
			Workload:       "adcirc",
			WorkloadParams: params,
			Balancer:       balancer,
		}}
	}
	for _, c := range cores {
		points = append(points, at(c, 1, nil))
		for _, ratio := range AdcircRatios() {
			points = append(points, at(c, ratio, lb.GreedyRefineLB{}))
		}
	}
	return points
}

// adcircScaling is AdcircScaling with the adcirc workload at params.
func adcircScaling(o Opts, params scenario.WorkloadParams, cores []int) ([]AdcircRow, *trace.Table, *trace.Table, error) {
	if cores == nil {
		cores = Table2Cores()
	}
	ratios := AdcircRatios()
	stride := 1 + len(ratios)
	points, err := run(o, adcircPoints(params, cores))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("adcirc: %w", err)
	}
	var rows []AdcircRow
	for ci, c := range cores {
		base := sim.Time(points[ci*stride].ExecNs)
		row := AdcircRow{Cores: c, Baseline: base, Best: base, BestRatio: 1}
		row.Points = append(row.Points, AdcircPoint{Cores: c, Ratio: 1, LB: false, Time: base})
		for ri, ratio := range ratios {
			tt := sim.Time(points[ci*stride+1+ri].ExecNs)
			row.Points = append(row.Points, AdcircPoint{Cores: c, Ratio: ratio, LB: true, Time: tt})
			if tt < row.Best {
				row.Best = tt
				row.BestRatio = ratio
			}
		}
		row.SpeedupPct = (float64(row.Baseline)/float64(row.Best) - 1) * 100
		rows = append(rows, row)
	}

	t2 := trace.NewTable("Table 2: ADCIRC speedup of best virtualization ratio over baseline",
		"Cores", "Baseline", "Best", "Best ratio", "Speedup %")
	for _, r := range rows {
		t2.AddRow(fmt.Sprint(r.Cores),
			trace.FormatDuration(r.Baseline),
			trace.FormatDuration(r.Best),
			fmt.Sprintf("%dx", r.BestRatio),
			fmt.Sprintf("%.0f", r.SpeedupPct))
	}

	f9 := trace.NewTable("Figure 9: ADCIRC strong scaling, virtualization x load balancing (lower is better)",
		"Cores", "ratio 1 (no LB)", "ratio 2 + LB", "ratio 4 + LB", "ratio 8 + LB")
	for _, r := range rows {
		cells := []string{fmt.Sprint(r.Cores)}
		for _, p := range r.Points {
			cells = append(cells, trace.FormatDuration(p.Time))
		}
		f9.AddRow(cells...)
	}
	return rows, t2, f9, nil
}
