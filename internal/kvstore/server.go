package kvstore

import (
	"fmt"
	"io"
	"math/rand"

	"profipy/internal/lazyrand"
)

// Request is an etcd-v2-style API request, as produced by the client's
// HTTP layer (the urllib transport host module).
type Request struct {
	Method    string // GET, PUT, POST, DELETE
	Key       string
	Value     string
	PrevValue string // compare-and-swap guard ("" = unconditional)
	HasPrev   bool
	TTLSec    int64
	Dir       bool
	Recursive bool
}

// Response is the server's reply, mirroring the etcd v2 JSON body plus the
// HTTP status code.
type Response struct {
	Status    int        `json:"status"`
	Action    string     `json:"action,omitempty"`
	Node      *NodeInfo  `json:"node,omitempty"`
	PrevNode  *NodeInfo  `json:"prevNode,omitempty"`
	Nodes     []NodeInfo `json:"nodes,omitempty"`
	ErrorCode int        `json:"errorCode,omitempty"`
	Message   string     `json:"message,omitempty"`
	Index     int64      `json:"index"`
}

// Config parameterises a Server.
type Config struct {
	// Now returns the current virtual time in nanoseconds (for TTLs).
	Now func() int64
	// Contention returns the current CPU contention level (0 = idle);
	// levels >= 1 enable stale reads, modelling the race conditions the
	// resource-hog campaign provokes (§V-C).
	Contention func() int
	// Seed drives the deterministic stale-read choice.
	Seed int64
	// Log receives server-side error log lines; nil discards them.
	Log io.Writer
}

// Server is the in-memory etcd-like server.
type Server struct {
	cfg   Config
	store *store
	rng   *rand.Rand

	bound        bool
	running      bool
	bootstrapped bool
	inconsistent bool
	memberID     string
}

// New creates a stopped server.
func New(cfg Config) *Server {
	if cfg.Now == nil {
		cfg.Now = func() int64 { return 0 }
	}
	if cfg.Contention == nil {
		cfg.Contention = func() int { return 0 }
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	return &Server{cfg: cfg, store: newStore(), rng: lazyrand.New(cfg.Seed)}
}

// Start binds the server port and boots the member. It fails when the
// port is still bound from a previous run that was never cleanly stopped
// (the "reconnection failure" mode of §V-A) or when the member state was
// corrupted (the "member has already been bootstrapped" mode).
func (s *Server) Start() error {
	if s.inconsistent {
		s.logf("ERROR member has already been bootstrapped")
		return fmt.Errorf("member has already been bootstrapped")
	}
	if s.bound {
		s.logf("ERROR bind: address already in use")
		return fmt.Errorf("bind: address already in use")
	}
	// Each start is a fresh deployment with an empty datastore; what
	// persists across runs is OS- and cluster-level state (the bound
	// port, the member registration).
	s.store = newStore()
	s.bound = true
	s.running = true
	s.bootstrapped = true
	return nil
}

// Stop shuts the server down. A clean stop releases the port; an unclean
// stop (client crash, experiment timeout) leaves it bound.
func (s *Server) Stop(clean bool) {
	s.running = false
	if clean {
		s.bound = false
		// The member deregisters on clean shutdown, so a later run can
		// register again without corrupting the cluster.
		s.memberID = ""
	}
}

// Running reports whether the server is serving requests.
func (s *Server) Running() bool { return s.running }

// Bound reports whether the TCP port is held.
func (s *Server) Bound() bool { return s.bound }

// Inconsistent reports whether the member state was corrupted.
func (s *Server) Inconsistent() bool { return s.inconsistent }

// RegisterMember adds a cluster member. Registering a member that already
// exists corrupts the cluster state permanently (until the container is
// torn down), reproducing the paper's bootstrap failure mode.
func (s *Server) RegisterMember(id string) error {
	if id == "" {
		s.inconsistent = true
		s.logf("ERROR invalid member id")
		return fmt.Errorf("invalid member id")
	}
	if s.memberID == id {
		s.inconsistent = true
		s.logf("ERROR member %s has already been bootstrapped", id)
		return fmt.Errorf("member has already been bootstrapped")
	}
	if s.memberID == "" {
		s.memberID = id
	}
	return nil
}

// Do serves one API request.
func (s *Server) Do(req Request) Response {
	now := s.cfg.Now()
	if !s.running {
		s.logf("ERROR connection refused (server not running)")
		return Response{Status: 503, ErrorCode: CodeRaftInternal, Message: "connection refused"}
	}
	if s.inconsistent {
		s.logf("ERROR member has already been bootstrapped")
		return Response{Status: 500, ErrorCode: CodeRaftInternal, Message: "member has already been bootstrapped"}
	}

	key, err := normalize(req.Key)
	if err != nil {
		s.logf("ERROR 400 Bad Request: %v", err)
		return Response{Status: 400, ErrorCode: CodeInvalidField, Message: "Bad Request: " + err.Error()}
	}
	if req.Method == "PUT" && !asciiOK(req.Value) {
		s.logf("ERROR 400 Bad Request: invalid value")
		return Response{Status: 400, ErrorCode: CodeInvalidField, Message: "Bad Request: invalid value"}
	}

	switch req.Method {
	case "GET":
		return s.doGet(key, req, now)
	case "PUT":
		return s.doPut(key, req, now)
	case "DELETE":
		return s.doDelete(key, req, now)
	default:
		s.logf("ERROR 405 method not allowed: %s", req.Method)
		return Response{Status: 405, Message: "method not allowed"}
	}
}

func (s *Server) doGet(key string, req Request, now int64) Response {
	n := s.store.lookup(key, now)
	if n == nil {
		return Response{Status: 404, ErrorCode: CodeKeyNotFound, Message: "Key not found", Index: s.store.index}
	}
	info := n.info(now)
	// Under CPU contention reads may observe the previous value — the
	// deterministic analog of the races the hog campaign triggered.
	if !n.dir && s.cfg.Contention() > 0 && n.prevValue != n.value && s.rng.Intn(6) == 0 {
		s.logf("WARN stale read of %s under contention", key)
		info.Value = n.prevValue
	}
	resp := Response{Status: 200, Action: "get", Node: &info, Index: s.store.index}
	if n.dir && req.Recursive || n.dir {
		for _, c := range n.sortedChildren() {
			resp.Nodes = append(resp.Nodes, c.info(now))
		}
	}
	return resp
}

func (s *Server) doPut(key string, req Request, now int64) Response {
	if key == "/" {
		return Response{Status: 403, ErrorCode: CodeRootReadOnly, Message: "Root is read only"}
	}
	parent, err := s.store.ensureDirs(key, now)
	if err != nil {
		s.logf("ERROR not a directory for %s", key)
		return Response{Status: 400, ErrorCode: CodeNotADir, Message: "Not a directory"}
	}
	name := leafName(key)
	existing := parent.children[name]
	if existing != nil && existing.expireNS > 0 && now >= existing.expireNS {
		delete(parent.children, name)
		existing = nil
	}

	if req.HasPrev {
		if existing == nil {
			return Response{Status: 404, ErrorCode: CodeKeyNotFound, Message: "Key not found", Index: s.store.index}
		}
		if existing.dir {
			return Response{Status: 403, ErrorCode: CodeNotAFile, Message: "Not a file"}
		}
		if existing.value != req.PrevValue {
			s.logf("WARN compare failed on %s", key)
			return Response{
				Status: 412, ErrorCode: CodeCompareFailed,
				Message: fmt.Sprintf("Compare failed ([%s != %s])", req.PrevValue, existing.value),
				Index:   s.store.index,
			}
		}
	}
	if existing != nil && existing.dir && !req.Dir {
		return Response{Status: 403, ErrorCode: CodeNotAFile, Message: "Not a file"}
	}
	if req.Dir && existing != nil {
		return Response{Status: 403, ErrorCode: CodeNodeExist, Message: "Node exist"}
	}
	if req.TTLSec < 0 {
		s.logf("ERROR invalid negative ttl for %s", key)
		return Response{Status: 400, ErrorCode: CodeInvalidField, Message: "Bad Request: invalid ttl"}
	}

	s.store.index++
	action := "set"
	var prev *NodeInfo
	n := existing
	if n == nil {
		n = &node{key: key, created: s.store.index}
		if req.Dir {
			n.dir = true
			n.children = map[string]*node{}
		}
		// A freshly created node has no older version to read stale.
		n.prevValue = req.Value
		parent.children[name] = n
		action = "create"
	} else {
		pi := n.info(now)
		prev = &pi
		n.prevValue = n.value
	}
	n.value = req.Value
	n.modified = s.store.index
	if req.TTLSec > 0 {
		n.expireNS = now + req.TTLSec*1_000_000_000
	} else {
		n.expireNS = 0
	}
	info := n.info(now)
	return Response{Status: 200, Action: action, Node: &info, PrevNode: prev, Index: s.store.index}
}

func (s *Server) doDelete(key string, req Request, now int64) Response {
	if key == "/" {
		return Response{Status: 403, ErrorCode: CodeRootReadOnly, Message: "Root is read only"}
	}
	parent, err := s.store.ensureDirs(key, now)
	if err != nil {
		return Response{Status: 400, ErrorCode: CodeNotADir, Message: "Not a directory"}
	}
	name := leafName(key)
	n, ok := parent.children[name]
	if !ok || (n.expireNS > 0 && now >= n.expireNS) {
		delete(parent.children, name)
		return Response{Status: 404, ErrorCode: CodeKeyNotFound, Message: "Key not found", Index: s.store.index}
	}
	if n.dir && len(n.children) > 0 && !req.Recursive {
		return Response{Status: 403, ErrorCode: CodeDirNotEmpty, Message: "Directory not empty"}
	}
	s.store.index++
	pi := n.info(now)
	delete(parent.children, name)
	return Response{Status: 200, Action: "delete", PrevNode: &pi, Index: s.store.index}
}

// Index returns the current modification index.
func (s *Server) Index() int64 { return s.store.index }

func (s *Server) logf(format string, args ...any) {
	fmt.Fprintf(s.cfg.Log, "[etcd-server] "+format+"\n", args...)
}

func asciiOK(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x09 || s[i] > 0x7e {
			return false
		}
	}
	return true
}
