package harness

import "provirt/internal/scenario"

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
