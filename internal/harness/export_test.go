package harness

import (
	"encoding/json"
	"fmt"

	"provirt/internal/scenario"
)

// The Specs the supervised sweeps build, for tests that run one of the
// harness's own points through another door.
var (
	FTSupervisedSpec = ftSupervisedSpec
	ElasticSpec      = elasticSpec
)

// RunPoint runs sp as a sweep's one point, labelled label, and returns
// the sweep's error.
func RunPoint(label string, sp scenario.Spec) error {
	_, err := run(Opts{Parallelism: 1}, []point{{label, sp}})
	return err
}

// SweepPoint is one point a figure runs: its label, its wire document,
// and the row run returned for it.
type SweepPoint struct {
	Label string
	Doc   []byte
	Row   scenario.Row
}

// SpecSweeps runs every point of every experiment that runs Specs, at
// its registry defaults, each point built by the figure's own points
// function, and returns them by experiment name in the order the
// figure runs them.
func SpecSweeps() (map[string][]SweepPoint, error) {
	out := map[string][]SweepPoint{}
	sweep := func(name string, points []point) ([]scenario.Row, error) {
		docs := make([][]byte, len(points))
		for i, p := range points {
			var err error
			if docs[i], err = json.Marshal(p.spec); err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, p.label, err)
			}
		}
		rows, err := run(Opts{}, points)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for i, p := range points {
			out[name] = append(out[name], SweepPoint{p.label, docs[i], rows[i]})
		}
		return rows, nil
	}
	var fig5scale []point
	for _, n := range fig5ScaleNodes {
		fig5scale = append(fig5scale, fig5Points(n)...)
	}
	ftRows, ftMeasure := ftMeasurePoints(nil)
	_, elastic := elasticPoints(nil)
	for _, s := range []struct {
		name   string
		points []point
	}{
		{"fig5", fig5Points(1)},
		{"fig5scale", fig5scale},
		{"fig6", fig6Points()},
		{"fig7", fig7Points()},
		{"fig8", fig8Points()},
		{"memory", memoryPoints()},
		{"ftsweep", ftMeasure},
		{"table2", adcircPoints(scenario.WorkloadParams{}, Table2Cores())},
		{"elastic", elastic},
	} {
		if _, err := sweep(s.name, s.points); err != nil {
			return nil, err
		}
	}
	measured := make([]scenario.Row, len(ftMeasure))
	for i, p := range out["ftsweep"] {
		measured[i] = p.Row
	}
	_, err := sweep("ftsweep", ftSupervisedPoints(ftRows, measured))
	return out, err
}
