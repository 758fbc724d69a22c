package harness

// The Specs the supervised sweeps build, for tests that run one of the
// harness's own points through another door.
var (
	FTSupervisedSpec = ftSupervisedSpec
	ElasticSpec      = elasticSpec
)
