package kvclient

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"profipy/internal/interp"
	"profipy/internal/kvstore"
	"profipy/internal/lazyrand"
	"profipy/internal/sandbox"
	"profipy/internal/trace"
)

// EnvByName resolves a named host environment for experiment
// interpreters into the three functions a workload.Config takes: the
// per-round installer and the capture/restore pair prefix-snapshot
// forking checkpoints host state with. "" and "kvclient" select the
// etcd case-study environment (InstallEnv); "plain" the bare sandbox
// hooks, which keep no state and so capture nothing (nil pair). The
// name travels in campaign specs and API requests where functions
// cannot — remote workers and the SaaS layer resolve it through this
// single table, so both sides can fork. Unknown names return ok=false.
func EnvByName(name string) (
	install func(it *interp.Interp, c *sandbox.Container),
	capture func(c *sandbox.Container) (any, bool),
	restore func(c *sandbox.Container, state any) bool,
	ok bool,
) {
	switch name {
	case "", "kvclient":
		return func(it *interp.Interp, c *sandbox.Container) { InstallEnv(it, c) }, CaptureEnv, RestoreEnv, true
	case "plain":
		return func(it *interp.Interp, c *sandbox.Container) { sandbox.InstallHooks(it, c) }, nil, nil, true
	default:
		return nil, nil, nil, false
	}
}

// Transport behaviour constants.
const (
	// requestLatencyNS is the virtual time one HTTP request costs.
	requestLatencyNS = 2_000_000 // 2ms
	// contentionLatencyNS is the extra virtual latency per contention unit.
	contentionLatencyNS = 200_000_000 // 200ms
	// stallPermille is the per-request probability (out of 1000) that CPU
	// contention triggers a scheduling stall. A stall times out the
	// current request and the next stallBurst requests, so a client
	// api() call usually burns all of its retries at once and crashes
	// with UnboundLocalError — the dominant §V-C failure — while most
	// hog experiments stay benign (≈14/37 fail).
	stallPermille = 22
	// stallBurst is how many follow-up requests a stall swallows.
	stallBurst = 2
)

// envKey* are the container env-bag keys holding per-container state that
// must survive across workload rounds.
const (
	envKeyState  = "kvclient.state"
	envKeyTracer = "kvclient.tracer"
)

// envRun is the per-container state of the kvclient environment, created
// by the first round's InstallEnv and shared by later rounds: the
// etcd-like server, the cross-round clock, and the transport's stall RNG
// and stall state. The host modules are shared by every interpreter of
// the process; they reach this state through the interpreter they are
// called on.
type envRun struct {
	c     *sandbox.Container
	srv   *kvstore.Server
	clock clockRef
	rng   *rand.Rand
	stall stallState
}

type envRunKey struct{}

func envOf(it *interp.Interp) *envRun {
	return it.HostData(envRunKey{}).(*envRun)
}

// stallState tracks an in-progress scheduling stall (see stallPermille).
type stallState struct {
	mu   sync.Mutex
	left int
}

// EnableTracing attaches a span recorder to a container; every transport
// request is then recorded for the failure visualization (§IV-D).
func EnableTracing(c *sandbox.Container) *trace.Recorder {
	rec := trace.NewRecorder()
	c.PutEnv(envKeyTracer, rec)
	return rec
}

// Tracer returns the container's span recorder, if tracing was enabled.
func Tracer(c *sandbox.Container) (*trace.Recorder, bool) {
	v, ok := c.GetEnv(envKeyTracer)
	if !ok {
		return nil, false
	}
	rec, ok := v.(*trace.Recorder)
	return rec, ok
}

// clockRef adapts the per-round interpreter's virtual clock into a
// container-lifetime monotonic clock (round 2 continues after round 1).
type clockRef struct {
	mu   sync.Mutex
	base int64
	it   *interp.Interp
}

// Now returns container virtual time in nanoseconds.
func (r *clockRef) Now() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.it == nil {
		return r.base
	}
	return r.base + r.it.Clock()
}

// attach switches the clock to a new interpreter, folding the previous
// interpreter's elapsed virtual time into the base.
func (r *clockRef) attach(it *interp.Interp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.it != nil {
		r.base += r.it.Clock()
	}
	r.it = it
}

// baseNS reads the folded-in base (prefix-state capture).
func (r *clockRef) baseNS() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.base
}

// setBase overwrites the folded-in base (prefix-state restore; the
// attached interpreter's own clock is restored separately by Fork).
func (r *clockRef) setBase(ns int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.base = ns
}

// InstallEnv wires a fresh interpreter (one workload round) to a
// container: the etcd-like server, the urllib/osio/etcdsrv/logx host
// modules, the check() assertion builtin, and the fault hooks. Server
// and clock state persist across rounds within the same container; the
// modules and hooks are built once per process, so a round's install
// only points them at the container's state.
func InstallEnv(it *interp.Interp, c *sandbox.Container) *kvstore.Server {
	sandbox.InstallHooks(it, c)

	var run *envRun
	if v, ok := c.GetEnv(envKeyState); ok {
		run = v.(*envRun)
	} else {
		run = &envRun{c: c, rng: lazyrand.New(c.Seed() + 1)}
		run.srv = kvstore.New(kvstore.Config{
			Now:        run.clock.Now,
			Contention: c.Contention,
			Seed:       c.Seed(),
			Log:        c.Log("server"),
		})
		c.PutEnv(envKeyState, run)
	}
	run.clock.attach(it)

	it.SetHostData(envRunKey{}, run)
	it.Install(hostEnv)
	return run.srv
}

// hostEnv is the shared kvclient host environment.
var hostEnv = interp.NewHostEnv().
	Module(urllibModule()).
	Module(osioModule()).
	Module(etcdsrvModule()).
	Module(logxModule()).
	Func("check", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		msg := "assertion failed"
		if len(args) > 1 {
			if s, ok := args[1].(string); ok {
				msg = s
			}
		}
		if len(args) == 0 || !interp.Truthy(args[0]) {
			return nil, throwExc(it, "AssertionError", msg)
		}
		return nil, nil
	})

// throwExc raises an exception from host-module code.
func throwExc(it *interp.Interp, excType, msg string) error {
	return &interp.PanicError{Val: &interp.Exc{Type: excType, Msg: msg}}
}

// urllibModule is the HTTP transport between the interpreted client and
// the kvstore server — the injection target of campaign A.
func urllibModule() *interp.Module {
	m := interp.NewModule("urllib")
	m.Func("Request", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		run := envOf(it)
		c, srv, stall := run.c, run.srv, &run.stall
		var method, url interp.Value
		var params interp.Value
		if len(args) > 0 {
			method = args[0]
		}
		if len(args) > 1 {
			url = args[1]
		}
		if len(args) > 2 {
			params = args[2]
		}
		ms, ok := method.(string)
		if !ok {
			return nil, throwExc(it, "TypeError", "request method must be a string, not "+interp.TypeName(method))
		}
		if url == nil {
			return nil, throwExc(it, "AttributeError", "nil object has no attribute 'startswith'")
		}
		us, ok := url.(string)
		if !ok {
			return nil, throwExc(it, "TypeError", "request url must be a string, not "+interp.TypeName(url))
		}
		var pm *interp.Map
		if params != nil {
			pm, ok = params.(*interp.Map)
			if !ok {
				return nil, throwExc(it, "TypeError", "request params must be a map, not "+interp.TypeName(params))
			}
		}

		it.AdvanceClock(requestLatencyNS)
		if lvl := c.Contention(); lvl > 0 {
			it.AdvanceClock(int64(lvl) * contentionLatencyNS)
			stall.mu.Lock()
			stalled := false
			if stall.left > 0 {
				stall.left--
				stalled = true
			} else if run.rng.Intn(1000) < stallPermille {
				stall.left = stallBurst
				stalled = true
			}
			stall.mu.Unlock()
			if stalled {
				it.AdvanceClock(1_000_000_000)
				return nil, throwExc(it, "RequestTimeout", "connection timed out under load")
			}
		}

		path, err := urlPath(us)
		if err != nil {
			return nil, throwExc(it, "InvalidURL", err.Error())
		}
		startNS := it.Clock()
		out, rerr := route(it, srv, ms, path, pm)
		if rec, ok := Tracer(c); ok {
			span := trace.Span{
				Name: ms + " " + path, Component: "urllib",
				StartNS: startNS, EndNS: it.Clock(),
			}
			if rerr != nil {
				span.Err = rerr.Error()
			} else if obj, ok := out.(*interp.Object); ok {
				v, _ := obj.Get("Status")
				if st, ok := v.(int64); ok && st >= 400 {
					span.Err = fmt.Sprintf("status %d", st)
				}
			}
			rec.Record(span)
		}
		return out, rerr
	})
	m.Func("Quote", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		if len(args) == 0 || args[0] == nil {
			return nil, throwExc(it, "AttributeError", "nil object has no attribute 'startswith'")
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, throwExc(it, "TypeError", "Quote argument must be a string")
		}
		return strings.ReplaceAll(s, " ", "%20"), nil
	})
	return m
}

func urlPath(url string) (string, error) {
	i := strings.Index(url, "://")
	if i < 0 {
		return "", fmt.Errorf("malformed url: %s", url)
	}
	rest := url[i+3:]
	j := strings.IndexByte(rest, '/')
	if j < 0 {
		return "/", nil
	}
	return rest[j:], nil
}

// route dispatches a parsed request to the server API and converts the
// reply into a minigo Response object.
func route(it *interp.Interp, srv *kvstore.Server, method, path string, params *interp.Map) (interp.Value, error) {
	switch {
	case path == "/health":
		obj := newResponse(200, 0, "ok", "", 0)
		if getStr(params, "detail") == "true" {
			obj.Set("Detail", "true")
		}
		return obj, nil
	case path == "/v2/stats/self":
		obj := newResponse(200, 0, "ok", "", 0)
		obj.Set("Name", "etcd-sim")
		return obj, nil
	case path == "/v2/members":
		if method == "POST" || method == "PUT" {
			id := getStr(params, "id")
			if err := srv.RegisterMember(id); err != nil {
				return newResponse(500, kvstore.CodeRaftInternal, err.Error(), "", srv.Index()), nil
			}
			return newResponse(200, 0, "", "add", srv.Index()), nil
		}
		obj := newResponse(200, 0, "", "get", srv.Index())
		return obj, nil
	case strings.HasPrefix(path, "/v2/auth/users"):
		return newResponse(200, 0, "", "auth", srv.Index()), nil
	case strings.HasPrefix(path, "/v2/keys"):
		key := strings.TrimPrefix(path, "/v2/keys")
		if key == "" {
			key = "/"
		}
		req := kvstore.Request{Method: method, Key: key}
		req.Value = getStr(params, "value")
		if v := getVal(params, "prevValue"); v != nil {
			req.HasPrev = true
			if s, ok := v.(string); ok {
				req.PrevValue = s
			}
		}
		if getStr(params, "dir") == "true" {
			req.Dir = true
		}
		if getStr(params, "recursive") == "true" {
			req.Recursive = true
		}
		if ttl := getVal(params, "ttl"); ttl != nil {
			switch t := ttl.(type) {
			case int64:
				req.TTLSec = t
			case string:
				n, err := strconv.ParseInt(t, 10, 64)
				if err != nil {
					return newResponse(400, kvstore.CodeInvalidField, "Bad Request: invalid ttl", "", srv.Index()), nil
				}
				req.TTLSec = n
			default:
				return newResponse(400, kvstore.CodeInvalidField, "Bad Request: invalid ttl", "", srv.Index()), nil
			}
		}
		// prevExist=false emulates the lock recipe's create-only PUT.
		if method == "PUT" && getStr(params, "prevExist") == "false" {
			if probe := srv.Do(kvstore.Request{Method: "GET", Key: key}); probe.Status == 200 {
				return newResponse(412, kvstore.CodeNodeExist, "Node exist", "", srv.Index()), nil
			}
		}
		resp := srv.Do(req)
		return respToObject(resp), nil
	default:
		return newResponse(404, 0, "not found: "+path, "", srv.Index()), nil
	}
}

// The host-built objects have fixed layouts, laid out once: building one
// is a single allocation filled in shape order.
var (
	responseShape = interp.NewShape("Response",
		"Status", "ErrorCode", "Message", "Action", "Index", "Node", "PrevNode", "Nodes")
	nodeShape = interp.NewShape("Node",
		"Key", "Value", "Dir", "TTL", "Created", "Modified")
)

func newResponse(status int, code int, msg, action string, index int64) *interp.Object {
	return responseShape.New(int64(status), int64(code), msg, action, index, nil, nil, interp.NewList())
}

func respToObject(r kvstore.Response) *interp.Object {
	var node, prev interp.Value
	if r.Node != nil {
		node = nodeToObject(*r.Node)
	}
	if r.PrevNode != nil {
		prev = nodeToObject(*r.PrevNode)
	}
	nodes := interp.NewList()
	if len(r.Nodes) > 0 {
		nodes.Elems = make([]interp.Value, len(r.Nodes))
		for i, n := range r.Nodes {
			nodes.Elems[i] = nodeToObject(n)
		}
	}
	return responseShape.New(int64(r.Status), int64(r.ErrorCode), r.Message, r.Action, r.Index, node, prev, nodes)
}

func nodeToObject(n kvstore.NodeInfo) *interp.Object {
	return nodeShape.New(n.Key, n.Value, n.Dir, n.TTL, n.Created, n.Modified)
}

func getVal(m *interp.Map, key string) interp.Value {
	if m == nil {
		return nil
	}
	v, _ := m.Get(key)
	return v
}

func getStr(m *interp.Map, key string) string {
	v := getVal(m, key)
	if v == nil {
		return ""
	}
	if s, ok := v.(string); ok {
		return s
	}
	return interp.Repr(v)
}

// osioModule exposes file I/O over the container filesystem — the second
// injection target of campaign A (the paper's os module).
func osioModule() *interp.Module {
	m := interp.NewModule("osio")
	pathArg := func(it *interp.Interp, args []interp.Value) (string, error) {
		if len(args) == 0 || args[0] == nil {
			return "", throwExc(it, "AttributeError", "nil object has no attribute 'startswith'")
		}
		s, ok := args[0].(string)
		if !ok {
			return "", throwExc(it, "TypeError", "path must be a string, not "+interp.TypeName(args[0]))
		}
		return s, nil
	}
	m.Func("WriteFile", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		p, err := pathArg(it, args)
		if err != nil {
			return nil, err
		}
		if len(args) < 2 || args[1] == nil {
			return nil, throwExc(it, "TypeError", "write data must be a string")
		}
		data, ok := args[1].(string)
		if !ok {
			return nil, throwExc(it, "TypeError", "write data must be a string, not "+interp.TypeName(args[1]))
		}
		it.AdvanceClock(1_000_000)
		envOf(it).c.FS.Write(p, []byte(data))
		return nil, nil
	})
	m.Func("AppendFile", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		p, err := pathArg(it, args)
		if err != nil {
			return nil, err
		}
		line := ""
		if len(args) > 1 {
			line = interp.Repr(args[1])
		}
		prev, _ := envOf(it).c.FS.Read(p)
		it.AdvanceClock(1_000_000)
		envOf(it).c.FS.Write(p, append(prev, []byte(line+"\n")...))
		return nil, nil
	})
	m.Func("ReadFile", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		p, err := pathArg(it, args)
		if err != nil {
			return nil, err
		}
		it.AdvanceClock(1_000_000)
		data, rerr := envOf(it).c.FS.Read(p)
		if rerr != nil {
			return nil, throwExc(it, "IOError", "no such file: "+p)
		}
		return string(data), nil
	})
	m.Func("Remove", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		p, err := pathArg(it, args)
		if err != nil {
			return nil, err
		}
		it.AdvanceClock(1_000_000)
		if rerr := envOf(it).c.FS.Remove(p); rerr != nil {
			return nil, throwExc(it, "IOError", "no such file: "+p)
		}
		return nil, nil
	})
	m.Func("Exists", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		p, err := pathArg(it, args)
		if err != nil {
			return nil, err
		}
		_, rerr := envOf(it).c.FS.Read(p)
		return rerr == nil, nil
	})
	return m
}

// etcdsrvModule lets the workload deploy and tear down the etcd server.
func etcdsrvModule() *interp.Module {
	m := interp.NewModule("etcdsrv")
	m.Func("Start", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		it.AdvanceClock(500_000_000) // server boot: 0.5s
		if err := envOf(it).srv.Start(); err != nil {
			return nil, throwExc(it, "ServerStartError", err.Error())
		}
		return true, nil
	})
	m.Func("Stop", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		envOf(it).srv.Stop(true)
		return nil, nil
	})
	m.Func("Running", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		return envOf(it).srv.Running(), nil
	})
	return m
}

// logxModule gives target code per-component log streams (the input of
// the failure-logging and propagation analyses).
func logxModule() *interp.Module {
	m := interp.NewModule("logx")
	write := func(level string) func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		return func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
			if len(args) < 2 {
				return nil, throwExc(it, "TypeError", "logx takes component and message")
			}
			comp, _ := args[0].(string)
			if comp == "" {
				comp = "misc"
			}
			fmt.Fprintf(envOf(it).c.Log(comp), "%s %s\n", level, interp.Repr(args[1]))
			return nil, nil
		}
	}
	m.Func("Error", write("ERROR"))
	m.Func("Warn", write("WARN"))
	m.Func("Info", write("INFO"))
	return m
}
