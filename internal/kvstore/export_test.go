package kvstore

// Inconsistent reports whether the member state was corrupted.
func (s *Server) Inconsistent() bool { return s.inconsistent }
