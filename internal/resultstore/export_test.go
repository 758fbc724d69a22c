package resultstore

// SyncFile and LogName open the log's fsync and file name to the
// package's external tests.
var (
	SyncFile = &syncFile
	LogName  = logName
)
