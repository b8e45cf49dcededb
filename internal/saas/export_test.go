package saas

import (
	"profipy/internal/fleet"
	"profipy/internal/obs"
	"profipy/internal/resultstore"
)

// Store exposes the campaign result store (read side: pagination and
// live follows). Never nil.
func (s *Server) Store() *resultstore.Store { return s.store }

// Metrics exposes the server's metric registry (the one behind
// GET /metrics). Never nil.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Fleet exposes the remote-worker coordinator. Never nil.
func (s *Server) Fleet() *fleet.Coordinator { return s.fleet }
