package kvstore

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func newRunning(t *testing.T) *Server {
	t.Helper()
	s := New(Config{})
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s
}

func TestSetGetDelete(t *testing.T) {
	s := newRunning(t)
	resp := s.Do(Request{Method: "PUT", Key: "/a", Value: "1"})
	if resp.Status != 200 || resp.Action != "create" {
		t.Fatalf("put = %+v", resp)
	}
	resp = s.Do(Request{Method: "GET", Key: "/a"})
	if resp.Status != 200 || resp.Node.Key == "" || resp.Node.Value != "1" {
		t.Fatalf("get = %+v", resp)
	}
	resp = s.Do(Request{Method: "DELETE", Key: "/a"})
	if resp.Status != 200 || resp.Action != "delete" {
		t.Fatalf("delete = %+v", resp)
	}
	resp = s.Do(Request{Method: "GET", Key: "/a"})
	if resp.Status != 404 || resp.ErrorCode != CodeKeyNotFound {
		t.Fatalf("get after delete = %+v", resp)
	}
}

func TestUpdateReportsPrevNode(t *testing.T) {
	s := newRunning(t)
	s.Do(Request{Method: "PUT", Key: "/a", Value: "1"})
	resp := s.Do(Request{Method: "PUT", Key: "/a", Value: "2"})
	if resp.Action != "set" || resp.PrevNode.Key == "" || resp.PrevNode.Value != "1" {
		t.Fatalf("update = %+v", resp)
	}
}

func TestDirectoriesAndSubKeys(t *testing.T) {
	s := newRunning(t)
	s.Do(Request{Method: "PUT", Key: "/dir/x", Value: "1"})
	s.Do(Request{Method: "PUT", Key: "/dir/y", Value: "2"})
	resp := s.Do(Request{Method: "GET", Key: "/dir"})
	if resp.Status != 200 || !resp.Node.Dir || len(resp.Nodes) != 2 {
		t.Fatalf("ls = %+v", resp)
	}
	if resp.Nodes[0].Key != "/dir/x" || resp.Nodes[1].Key != "/dir/y" {
		t.Fatalf("children = %+v (want sorted)", resp.Nodes)
	}
	// Setting a value over a directory must fail.
	resp = s.Do(Request{Method: "PUT", Key: "/dir", Value: "z"})
	if resp.Status != 403 || resp.ErrorCode != CodeNotAFile {
		t.Fatalf("put over dir = %+v", resp)
	}
	// Deleting a non-empty dir requires recursive.
	resp = s.Do(Request{Method: "DELETE", Key: "/dir"})
	if resp.ErrorCode != CodeDirNotEmpty {
		t.Fatalf("delete non-empty = %+v", resp)
	}
	resp = s.Do(Request{Method: "DELETE", Key: "/dir", Recursive: true})
	if resp.Status != 200 {
		t.Fatalf("recursive delete = %+v", resp)
	}
}

func TestMkdirConflict(t *testing.T) {
	s := newRunning(t)
	if resp := s.Do(Request{Method: "PUT", Key: "/d", Dir: true}); resp.Status != 200 {
		t.Fatalf("mkdir = %+v", resp)
	}
	if resp := s.Do(Request{Method: "PUT", Key: "/d", Dir: true}); resp.ErrorCode != CodeNodeExist {
		t.Fatalf("mkdir again = %+v", resp)
	}
}

func TestTTLExpiryOnVirtualClock(t *testing.T) {
	now := int64(0)
	s := New(Config{Now: func() int64 { return now }})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Do(Request{Method: "PUT", Key: "/tmp", Value: "v", TTLSec: 5})
	if resp := s.Do(Request{Method: "GET", Key: "/tmp"}); resp.Status != 200 {
		t.Fatalf("get before expiry = %+v", resp)
	}
	now = 6_000_000_000
	if resp := s.Do(Request{Method: "GET", Key: "/tmp"}); resp.Status != 404 {
		t.Fatalf("get after expiry = %+v", resp)
	}
}

func TestCompareAndSwap(t *testing.T) {
	s := newRunning(t)
	s.Do(Request{Method: "PUT", Key: "/k", Value: "old"})
	resp := s.Do(Request{Method: "PUT", Key: "/k", Value: "new", PrevValue: "wrong", HasPrev: true})
	if resp.Status != 412 || resp.ErrorCode != CodeCompareFailed {
		t.Fatalf("cas mismatch = %+v", resp)
	}
	resp = s.Do(Request{Method: "PUT", Key: "/k", Value: "new", PrevValue: "old", HasPrev: true})
	if resp.Status != 200 {
		t.Fatalf("cas = %+v", resp)
	}
	if resp := s.Do(Request{Method: "GET", Key: "/k"}); resp.Node.Value != "new" {
		t.Fatalf("after cas = %+v", resp)
	}
	// CAS on a missing key reports key-not-found.
	resp = s.Do(Request{Method: "PUT", Key: "/nope", Value: "x", PrevValue: "y", HasPrev: true})
	if resp.ErrorCode != CodeKeyNotFound {
		t.Fatalf("cas missing = %+v", resp)
	}
}

func TestBadRequestOnNonASCII(t *testing.T) {
	s := newRunning(t)
	resp := s.Do(Request{Method: "PUT", Key: "/k\xff", Value: "v"})
	if resp.Status != 400 {
		t.Fatalf("non-ascii key = %+v", resp)
	}
	resp = s.Do(Request{Method: "PUT", Key: "/k", Value: "v\xc3\x28"})
	if resp.Status != 400 {
		t.Fatalf("non-ascii value = %+v", resp)
	}
	if resp := s.Do(Request{Method: "PUT", Key: "", Value: "v"}); resp.Status != 400 {
		t.Fatalf("empty key = %+v", resp)
	}
}

func TestNegativeTTLRejected(t *testing.T) {
	s := newRunning(t)
	resp := s.Do(Request{Method: "PUT", Key: "/k", Value: "v", TTLSec: -3})
	if resp.Status != 400 {
		t.Fatalf("negative ttl = %+v", resp)
	}
}

func TestPortLeakOnUncleanStop(t *testing.T) {
	s := newRunning(t)
	s.Stop(false) // crash: port stays bound
	if err := s.Start(); err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("restart after crash = %v, want bind failure", err)
	}
	// A clean stop releases the port.
	s2 := newRunning(t)
	s2.Stop(true)
	if err := s2.Start(); err != nil {
		t.Fatalf("restart after clean stop: %v", err)
	}
}

func TestMemberBootstrapCorruption(t *testing.T) {
	s := newRunning(t)
	if err := s.RegisterMember("m1"); err != nil {
		t.Fatalf("first register: %v", err)
	}
	if err := s.RegisterMember("m1"); err == nil {
		t.Fatal("duplicate register must fail")
	}
	if !s.Inconsistent() {
		t.Fatal("duplicate register must corrupt member state")
	}
	resp := s.Do(Request{Method: "GET", Key: "/a"})
	if resp.Status != 500 || !strings.Contains(resp.Message, "bootstrapped") {
		t.Fatalf("op on inconsistent member = %+v", resp)
	}
	s.Stop(true)
	if err := s.Start(); err == nil {
		t.Fatal("restart of inconsistent member must fail")
	}
}

func TestRequestsRefusedWhenStopped(t *testing.T) {
	s := New(Config{})
	resp := s.Do(Request{Method: "GET", Key: "/a"})
	if resp.Status != 503 {
		t.Fatalf("stopped server = %+v", resp)
	}
}

func TestStaleReadsUnderContention(t *testing.T) {
	level := 0
	s := New(Config{Contention: func() int { return level }, Seed: 42})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Do(Request{Method: "PUT", Key: "/k", Value: "v1"})
	s.Do(Request{Method: "PUT", Key: "/k", Value: "v2"})

	// Without contention reads are always fresh.
	for i := 0; i < 20; i++ {
		if resp := s.Do(Request{Method: "GET", Key: "/k"}); resp.Node.Value != "v2" {
			t.Fatalf("fresh read = %+v", resp)
		}
	}
	// Under contention some reads return the previous value.
	level = 2
	stale := 0
	for i := 0; i < 50; i++ {
		if resp := s.Do(Request{Method: "GET", Key: "/k"}); resp.Node.Value == "v1" {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("expected stale reads under contention")
	}
}

func TestServerLogCapturesErrors(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{Log: &buf})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Do(Request{Method: "PUT", Key: "/bad\xff", Value: "v"})
	if !strings.Contains(buf.String(), "400 Bad Request") {
		t.Fatalf("log = %q, want 400 entry", buf.String())
	}
}

func TestNormalizeProperties(t *testing.T) {
	// Property: normalized keys always start with "/" and contain no "//",
	// or normalization fails.
	prop := func(key string) bool {
		norm, err := normalize(key)
		if err != nil {
			return true
		}
		return strings.HasPrefix(norm, "/") && !strings.Contains(norm, "//")
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	// Property: normalization is idempotent.
	idem := func(key string) bool {
		a, err := normalize(key)
		if err != nil {
			return true
		}
		b, err := normalize(a)
		return err == nil && a == b
	}
	if err := quick.Check(idem, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexMonotonicallyIncreases(t *testing.T) {
	s := newRunning(t)
	last := s.Index()
	for i := 0; i < 10; i++ {
		s.Do(Request{Method: "PUT", Key: "/k", Value: strings.Repeat("x", i+1)})
		if s.Index() <= last {
			t.Fatalf("index did not advance: %d <= %d", s.Index(), last)
		}
		last = s.Index()
	}
}
