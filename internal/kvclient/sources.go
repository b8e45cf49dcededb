// Package kvclient provides the software-under-test of the paper's case
// study (§V): client bindings for the etcd-like kvstore, written in the
// interpreted minigo subset — the analog of Python-etcd 0.4.5 — plus the
// workload derived from its integration tests, the host modules (urllib,
// osio, etcdsrv, logx) that connect interpreted code to the sandbox, and
// the three campaign faultloads of Table I.
//
// The client intentionally mirrors Python-etcd's failure-relevant
// behaviour: no sanitization of nil or non-ASCII inputs, a retry loop
// whose result variable is only assigned on success (the UnboundLocalError
// pattern), and member registration that corrupts the cluster when
// repeated.
package kvclient

// FileClient is the container path of the core client module.
const FileClient = "etcdclient/client.go"

// FileLock is the container path of the lock recipe module.
const FileLock = "etcdclient/lock.go"

// FileAuth is the container path of the auth module.
const FileAuth = "etcdclient/auth.go"

// FileWorkload is the container path of the workload program.
const FileWorkload = "workload/workload.go"

// ClientSource is the core client module (the primary injection target of
// campaign A).
const ClientSource = `package etcdclient

import "urllib"
import "osio"
import "strlib"
import "logx"

type Client struct{}

func NewClient(base string, retries int) any {
	c := &Client{base: base, retries: retries, connected: false,
		statePath: "/var/cache/etcd-client.state",
		auditPath: "/var/log/etcd-client.log",
		memberID:  "member-1"}
	c.connect()
	return c
}

func (c *Client) connect() any {
	if c.connected {
		return true
	}
	resp := urllib.Request("POST", c.base+"/v2/members", map[string]any{"id": c.memberID})
	if resp.Status != 200 {
		logx.Error("client", "cannot register member: "+resp.Message)
		throw("EtcdConnectionFailed", resp.Message)
	}
	verify := urllib.Request("GET", c.base+"/v2/members", nil)
	if verify.Status != 200 {
		logx.Error("client", "member list failed: "+verify.Message)
		throw("EtcdConnectionFailed", verify.Message)
	}
	osio.WriteFile(c.statePath, "connected")
	c.connected = true
	return true
}

func (c *Client) normalize(key string) any {
	if !strlib.HasPrefix(key, "/") {
		key = "/" + key
	}
	return key
}

func (c *Client) encode(value string) any {
	if value == nil {
		return ""
	}
	return strlib.Replace(value, "\n", " ")
}

func (c *Client) keysURL(key string) any {
	return c.base + "/v2/keys" + key
}

func (c *Client) api(method string, url string, params any) any {
	attempt := 0
	for attempt < c.retries {
		out := map[string]any{"resp": nil, "err": nil}
		c.tryOnce(out, method, url, params)
		if out["err"] == nil {
			result = out["resp"]
			break
		}
		logx.Error("client", "request failed (attempt "+str(attempt)+"): "+str(out["err"]))
		attempt = attempt + 1
	}
	return result
}

func (c *Client) tryOnce(out any, method string, url string, params any) any {
	defer c.captureErr(out)
	resp := urllib.Request(method, url, params)
	out["resp"] = resp
	return nil
}

func (c *Client) captureErr(out any) any {
	r := recover()
	if r != nil {
		out["err"] = r
	}
	return nil
}

func (c *Client) handleResponse(resp any) any {
	if resp.Status == 200 {
		return resp
	}
	if resp.ErrorCode == 100 {
		logx.Error("client", "key not found: "+resp.Message)
		throw("EtcdKeyNotFound", resp.Message)
	}
	if resp.ErrorCode == 101 {
		logx.Error("client", "compare failed: "+resp.Message)
		throw("EtcdCompareFailed", resp.Message)
	}
	if resp.Status == 400 {
		logx.Error("client", "bad request: "+resp.Message)
		throw("EtcdException", "Bad response: 400 Bad Request")
	}
	logx.Error("client", "bad response: "+str(resp.Status)+" "+resp.Message)
	throw("EtcdException", "Bad response: "+str(resp.Status))
	return nil
}

func (c *Client) Set(key string, value string) any {
	k := c.normalize(key)
	v := c.encode(value)
	resp := c.api("PUT", c.keysURL(k), map[string]any{"value": v})
	return c.handleResponse(resp)
}

func (c *Client) SetWithTTL(key string, value string, ttl int) any {
	k := c.normalize(key)
	v := c.encode(value)
	resp := c.api("PUT", c.keysURL(k), map[string]any{"value": v, "ttl": ttl})
	return c.handleResponse(resp)
}

func (c *Client) Get(key string) any {
	k := c.normalize(key)
	resp := c.api("GET", c.keysURL(k), nil)
	return c.handleResponse(resp)
}

func (c *Client) Delete(key string) any {
	k := c.normalize(key)
	resp := c.api("DELETE", c.keysURL(k), nil)
	return c.handleResponse(resp)
}

func (c *Client) TestAndSet(key string, value string, old string) any {
	k := c.normalize(key)
	v := c.encode(value)
	resp := c.api("PUT", c.keysURL(k), map[string]any{"value": v, "prevValue": old})
	return c.handleResponse(resp)
}

func (c *Client) Update(key string, value string) any {
	k := c.normalize(key)
	v := c.encode(value)
	resp := c.api("PUT", c.keysURL(k), map[string]any{"value": v})
	return c.handleResponse(resp)
}

func (c *Client) Mkdir(path string) any {
	k := c.normalize(path)
	resp := c.api("PUT", c.keysURL(k), map[string]any{"dir": "true"})
	return c.handleResponse(resp)
}

func (c *Client) Ls(path string) any {
	k := c.normalize(path)
	resp := c.api("GET", c.keysURL(k), map[string]any{"recursive": "true"})
	return c.handleResponse(resp)
}

func (c *Client) Rmdir(path string, recursive bool) any {
	k := c.normalize(path)
	params := map[string]any{}
	if recursive {
		params["recursive"] = "true"
	}
	resp := c.api("DELETE", c.keysURL(k), params)
	return c.handleResponse(resp)
}

func (c *Client) Refresh(key string, ttl int) any {
	k := c.normalize(key)
	cur := c.Get(k)
	resp := c.api("PUT", c.keysURL(k), map[string]any{"value": cur.Node.Value, "ttl": ttl})
	return c.handleResponse(resp)
}

func (c *Client) Health() any {
	resp := urllib.Request("GET", c.base+"/health", map[string]any{"detail": "true"})
	if resp.Status != 200 {
		return false
	}
	return resp.Detail == "true"
}

func (c *Client) Stats() any {
	resp := urllib.Request("GET", c.base+"/v2/stats/self", nil)
	if resp.Status != 200 {
		throw("EtcdException", "stats unavailable")
	}
	return resp
}

func (c *Client) LoadState() any {
	data := osio.ReadFile(c.statePath)
	return data
}

func (c *Client) Close() any {
	osio.Remove(c.statePath)
	osio.AppendFile(c.auditPath, "client closed")
	c.connected = false
	return nil
}
`

// LockSource is the distributed-lock recipe module (partially covered by
// the workload, like Python-etcd's lock module).
const LockSource = `package etcdclient

import "urllib"
import "osio"
import "logx"

type Lock struct{}

func NewLock(c any, name string) any {
	return &Lock{client: c, name: name, held: false}
}

func (l *Lock) Acquire(owner string) any {
	c := l.client
	resp := urllib.Request("PUT", c.base+"/v2/keys/_locks/"+l.name,
		map[string]any{"value": owner, "prevExist": "false"})
	if resp.Status != 200 {
		logx.Error("lock", "acquire failed: "+resp.Message)
		throw("LockFailed", resp.Message)
	}
	if resp.Node.Value != owner {
		logx.Error("lock", "acquire race: owner mismatch")
		throw("LockFailed", "owner mismatch after acquire")
	}
	osio.WriteFile("/var/run/lock-"+l.name, owner)
	l.held = true
	return true
}

func (l *Lock) Release() any {
	c := l.client
	resp := urllib.Request("DELETE", c.base+"/v2/keys/_locks/"+l.name, map[string]any{})
	if resp.Status != 200 {
		logx.Error("lock", "release failed: "+resp.Message)
		throw("LockFailed", resp.Message)
	}
	osio.Remove("/var/run/lock-" + l.name)
	if osio.Exists("/var/run/lock-" + l.name) {
		logx.Error("lock", "lock file leaked")
		throw("LockLeaked", "lock file still present after release")
	}
	l.held = false
	return true
}
`

// AuthSource is the auth/users module (not covered by the workload; its
// injection points are the ones coverage analysis prunes).
const AuthSource = `package etcdclient

import "urllib"
import "osio"
import "logx"

type Auth struct{}

func NewAuth(c any) any {
	return &Auth{client: c}
}

func (a *Auth) ListUsers() any {
	c := a.client
	resp := urllib.Request("GET", c.base+"/v2/auth/users", nil)
	if resp.Status != 200 {
		logx.Error("auth", "list users failed: "+resp.Message)
		throw("EtcdException", resp.Message)
	}
	return resp.Nodes
}

func (a *Auth) AddUser(name string, password string) any {
	c := a.client
	resp := urllib.Request("PUT", c.base+"/v2/auth/users/"+name, map[string]any{"password": password})
	if resp.Status != 200 {
		logx.Error("auth", "add user failed: "+resp.Message)
		throw("EtcdException", resp.Message)
	}
	return true
}

func (a *Auth) RemoveUser(name string) any {
	c := a.client
	resp := urllib.Request("DELETE", c.base+"/v2/auth/users/"+name, nil)
	if resp.Status != 200 {
		logx.Error("auth", "remove user failed: "+resp.Message)
		throw("EtcdException", resp.Message)
	}
	return true
}

func (a *Auth) SaveToken(token string) any {
	osio.WriteFile("/etc/etcd/token", token)
	return nil
}
`

// WorkloadSource is the workload program derived from the client's
// integration tests: it deploys the etcd server, uploads and queries
// key-value pairs of different kinds (directories, sub-keys, TTLs, CAS),
// and checks consistency with assertions (§V). Each test case runs under
// a recover guard so one failing case does not abort the run; the server
// is stopped cleanly at the end (leaving the port bound when the workload
// crashes earlier — the reconnection-failure mode).
const WorkloadSource = `package workload

import "etcdsrv"
import "logx"

func Workload() any {
	etcdsrv.Start()
	c := NewClient("http://127.0.0.1:2379", 3)
	probe := c.Get("/")
	if probe.Status != 200 {
		throw("WorkloadSetupFailed", "probe of key space root failed")
	}
	ready := c.Health()
	if ready != true {
		throw("WorkloadSetupFailed", "server not healthy at startup")
	}

	failed := 0
	failed = failed + runCase("basic", caseBasic, c)
	failed = failed + runCase("dirs", caseDirs, c)
	failed = failed + runCase("ttl", caseTTL, c)
	failed = failed + runCase("cas", caseCAS, c)
	failed = failed + runCase("update", caseUpdate, c)
	failed = failed + runCase("subkeys", caseSubKeys, c)
	failed = failed + runCase("push", casePushMetrics, c)
	failed = failed + runCase("health", caseHealth, c)
	failed = failed + runCase("lock", caseLock, c)
	failed = failed + runCase("cleanup", caseCleanup, c)

	final := c.Health()
	if final != true {
		failed = failed + 1
		logx.Error("workload", "server unhealthy at shutdown")
	}
	etcdsrv.Stop()
	if failed > 0 {
		logx.Error("workload", str(failed)+" test cases failed")
		throw("WorkloadFailed", str(failed)+" test cases failed")
	}
	return "ok"
}

func runCase(name string, fn any, c any) any {
	status := map[string]any{"failed": 0}
	runProtected(status, name, fn, c)
	return status["failed"]
}

func runProtected(status any, name string, fn any, c any) any {
	defer noteFailure(status, name)
	fn(c)
	return nil
}

func noteFailure(status any, name string) any {
	r := recover()
	if r != nil {
		logx.Error("workload", "case "+name+" failed: "+str(r))
		status["failed"] = 1
	}
	return nil
}

func caseBasic(c any) any {
	c.Set("/app/name", "demo")
	r := c.Get("/app/name")
	check(r.Node.Value == "demo", "basic: read-back mismatch")
	c.Delete("/app/name")
	return nil
}

func caseDirs(c any) any {
	c.Mkdir("/cfg")
	c.Set("/cfg/a", "1")
	c.Set("/cfg/b", "2")
	ls := c.Ls("/cfg")
	check(len(ls.Nodes) == 2, "dirs: expected two children")
	c.Rmdir("/cfg", true)
	return nil
}

func caseTTL(c any) any {
	c.SetWithTTL("/tmp/session", "tok", 30)
	r := c.Get("/tmp/session")
	check(r.Node.TTL > 0, "ttl: missing ttl on node")
	c.Refresh("/tmp/session", 60)
	return nil
}

func caseCAS(c any) any {
	c.Set("/cas/slot", "old")
	c.TestAndSet("/cas/slot", "new", "old")
	r := c.Get("/cas/slot")
	check(r.Node.Value == "new", "cas: value not swapped")
	c.TestAndSet("/cas/slot", "final", "new")
	return nil
}

func caseUpdate(c any) any {
	c.Set("/upd/x", "one")
	c.Update("/upd/x", "two")
	r := c.Get("/upd/x")
	check(r.Node.Value == "two", "update: value not updated")
	return nil
}

func caseSubKeys(c any) any {
	c.Set("/deep/a/b/c", "leaf")
	r := c.Get("/deep/a/b/c")
	check(r.Node.Value == "leaf", "subkeys: deep read-back mismatch")
	ls := c.Ls("/deep")
	check(len(ls.Nodes) > 0, "subkeys: deep listing empty")
	return nil
}

func casePushMetrics(c any) any {
	c.Set("/metrics/cpu", "12")
	c.Set("/metrics/mem", "934")
	c.Set("/metrics/io", "77")
	c.Set("/heartbeat/node-1", "alive")
	r := c.Get("/metrics/cpu")
	check(r.Status == 200, "push: metrics unreadable")
	return nil
}

func caseHealth(c any) any {
	h := c.Health()
	check(h == true, "health: server reports unhealthy")
	again := c.Health()
	check(again == true, "health: second probe failed")
	return nil
}

func caseLock(c any) any {
	l := NewLock(c, "job-42")
	l.Acquire("worker-a")
	l.Release()
	return nil
}

func caseCleanup(c any) any {
	c.Set("/gc/temp1", "x")
	c.Set("/gc/temp2", "y")
	c.Delete("/gc/temp1")
	c.Delete("/gc/temp2")
	r := c.Ls("/gc")
	check(len(r.Nodes) == 0, "cleanup: keys leaked")
	c.Delete("/heartbeat/node-1")
	return nil
}
`

// LateWorkloadSource is the late-site workload variant: a long
// ingest-and-verify prefix on the core client, with lock and auth
// traffic only in the final stretch of the round. Scanning the lock and
// auth modules against it yields injection sites that are first reached
// after ~90% of the round — the scenario where prefix-snapshot fork
// execution approaches its ceiling (round 2 still runs in full), and
// the one BENCH_exec.json's fork on/off row measures.
const LateWorkloadSource = `package workload

import "etcdsrv"
import "logx"

func Workload() any {
	etcdsrv.Start()
	c := NewClient("http://127.0.0.1:2379", 3)
	ready := c.Health()
	if ready != true {
		throw("WorkloadSetupFailed", "server not healthy at startup")
	}

	i := 0
	for i < 48 {
		key := "/bulk/item-" + str(i)
		c.Set(key, "payload-"+str(i))
		got := c.Get(key)
		if got.Node.Value != "payload-"+str(i) {
			throw("WorkloadFailed", "ingest mismatch at "+key)
		}
		i = i + 1
	}
	listing := c.Ls("/bulk")
	if len(listing.Nodes) != 48 {
		throw("WorkloadFailed", "ingest incomplete: "+str(len(listing.Nodes)))
	}

	sweep := 0
	for sweep < 3 {
		i = 0
		for i < 48 {
			key := "/bulk/item-" + str(i)
			got := c.Get(key)
			if got.Node.Value != "payload-"+str(i) {
				throw("WorkloadFailed", "stale read at "+key)
			}
			i = i + 1
		}
		sweep = sweep + 1
	}

	locks := 0
	for locks < 3 {
		l := NewLock(c, "job-"+str(locks))
		l.Acquire("worker-" + str(locks))
		l.Release()
		locks = locks + 1
	}

	a := NewAuth(c)
	a.AddUser("operator", "hunter2")
	a.ListUsers()
	a.SaveToken("tok-operator")
	a.RemoveUser("operator")

	final := c.Health()
	if final != true {
		logx.Error("workload", "server unhealthy at shutdown")
	}
	etcdsrv.Stop()
	return "ok"
}
`

// Sources returns all target files (client modules + workload), keyed by
// container path.
func Sources() map[string][]byte {
	return map[string][]byte{
		FileClient:   []byte(ClientSource),
		FileLock:     []byte(LockSource),
		FileAuth:     []byte(AuthSource),
		FileWorkload: []byte(WorkloadSource),
	}
}
