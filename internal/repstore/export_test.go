package repstore

// WALFile is the file interface the log writes through, exported for tests
// outside the package that count or fail its calls.
type WALFile = walFile

// WrapWALFile routes s's active WAL file through wrap, so a test in another
// package (agentdir's batch path) can count syncs or inject write failures.
func WrapWALFile(s *Store, wrap func(WALFile) WALFile) {
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	s.wal.f = wrap(s.wal.f)
}
