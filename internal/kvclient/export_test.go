package kvclient

// ClientFiles returns just the client library files (campaign A's scan
// target).
func ClientFiles() map[string][]byte {
	return map[string][]byte{
		FileClient: []byte(ClientSource),
		FileLock:   []byte(LockSource),
		FileAuth:   []byte(AuthSource),
	}
}

// WorkloadFiles returns just the workload file (campaign B/C's scan
// target).
func WorkloadFiles() map[string][]byte {
	return map[string][]byte{
		FileWorkload: []byte(WorkloadSource),
	}
}
