package mutator

import (
	"strings"
	"testing"

	"profipy/internal/dsl"
	"profipy/internal/pattern"
	"profipy/internal/scanner"
)

const target = `package client

func Cleanup(c *Conn, node string) {
	prepare(c)
	DeletePort(c, node)
	finish(c)
}

func Sweep(nodes []string) {
	for _, node := range nodes {
		if node == "" {
			logSkip(node)
			continue
		}
		process(node)
	}
}

func Provision(c *Conn) {
	setup(c)
	utils.Execute("iptables", "-A INPUT", "allow")
	teardown(c)
}
`

func compileAndScan(t *testing.T, name, spec string) (*pattern.MetaModel, []scanner.InjectionPoint) {
	t.Helper()
	mm, err := dsl.Compile(name, spec)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	pts, err := scanner.ScanSource("client.go", []byte(target), []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatalf("ScanSource: %v", err)
	}
	if len(pts) == 0 {
		t.Fatalf("no injection points for %s", name)
	}
	return mm, pts
}

func TestApplyMFCRemovesCall(t *testing.T) {
	mm, pts := compileAndScan(t, "MFC", `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`)
	res, err := Apply("client.go", []byte(target), mm, pts[0], Options{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	out := string(res.Source)
	if strings.Contains(out, "DeletePort") {
		t.Error("mutated source still contains the omitted call")
	}
	if !strings.Contains(out, "prepare(c)") || !strings.Contains(out, "finish(c)") {
		t.Error("mutated source lost the surrounding blocks")
	}
	// The mutated file must still be parseable.
	if _, err := scanner.ScanSource("client.go", res.Source, nil); err != nil {
		t.Fatalf("mutated source does not parse: %v", err)
	}
}

func TestApplyMFCTriggered(t *testing.T) {
	mm, pts := compileAndScan(t, "MFC", `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`)
	res, err := Apply("client.go", []byte(target), mm, pts[0], Options{Triggered: true})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	out := string(res.Source)
	if !strings.Contains(out, HookTrigger+"()") {
		t.Error("triggered mutation must branch on the trigger hook")
	}
	// The original call must survive in the else branch.
	if !strings.Contains(out, "DeletePort") {
		t.Error("triggered mutation must keep the original statements")
	}
	if _, err := scanner.ScanSource("client.go", res.Source, nil); err != nil {
		t.Fatalf("mutated source does not parse: %v", err)
	}
}

func TestApplyMIFSRemovesIf(t *testing.T) {
	mm, pts := compileAndScan(t, "MIFS", `
change {
	if $EXPR{var=node} {
		$BLOCK{stmts=1,4}
		continue
	}
} into {
}`)
	res, err := Apply("client.go", []byte(target), mm, pts[0], Options{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	out := string(res.Source)
	if strings.Contains(out, "logSkip") || strings.Contains(out, "continue") {
		t.Errorf("if construct was not removed:\n%s", out)
	}
	if !strings.Contains(out, "process(node)") {
		t.Error("statements outside the if must survive")
	}
}

func TestApplyWPFCorruptsParameter(t *testing.T) {
	mm, pts := compileAndScan(t, "WPF", `
change {
	$CALL#c{name=utils.Execute}(..., $STRING#s{val=*-*}, ...)
} into {
	$CALL#c(..., $CORRUPT($STRING#s), ...)
}`)
	res, err := Apply("client.go", []byte(target), mm, pts[0], Options{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	out := string(res.Source)
	if !strings.Contains(out, HookCorrupt+`("-A INPUT")`) {
		t.Errorf("corrupted parameter missing:\n%s", out)
	}
	// Other arguments intact.
	if !strings.Contains(out, `"iptables"`) || !strings.Contains(out, `"allow"`) {
		t.Error("untouched arguments must survive")
	}
}

func TestApplyPanicReplacement(t *testing.T) {
	mm, pts := compileAndScan(t, "THROW", `
change {
	$CALL#c{name=utils.Execute}(...)
} into {
	$PANIC{type=ConnectTimeoutError; msg=injected timeout}
}`)
	res, err := Apply("client.go", []byte(target), mm, pts[0], Options{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	out := string(res.Source)
	if !strings.Contains(out, `panic(`+HookExc+`("ConnectTimeoutError", "injected timeout"))`) {
		t.Errorf("panic replacement missing:\n%s", out)
	}
}

func TestApplyHogAndTimeout(t *testing.T) {
	mm, pts := compileAndScan(t, "HOG", `
change {
	$CALL#c{name=utils.Execute}(...)
} into {
	$CALL#c
	$HOG{res=cpu; amount=2}
	$TIMEOUT{ms=250}
}`)
	res, err := Apply("client.go", []byte(target), mm, pts[0], Options{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	out := string(res.Source)
	if !strings.Contains(out, HookHog+`("cpu", 2)`) {
		t.Errorf("hog hook missing:\n%s", out)
	}
	if !strings.Contains(out, HookDelay+`(250)`) {
		t.Errorf("delay hook missing:\n%s", out)
	}
	// $CALL#c without args re-emits the original call verbatim.
	if !strings.Contains(out, `utils.Execute("iptables", "-A INPUT", "allow")`) {
		t.Errorf("original call not re-emitted:\n%s", out)
	}
}

func TestApplyStalePointFails(t *testing.T) {
	mm, pts := compileAndScan(t, "MFC", `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`)
	stale := pts[0]
	stale.Start = 99
	if _, err := Apply("client.go", []byte(target), mm, stale, Options{}); err == nil {
		t.Fatal("Apply with stale point should fail")
	}
	wrongSpec := pts[0]
	wrongSpec.Spec = "OTHER"
	if _, err := Apply("client.go", []byte(target), mm, wrongSpec, Options{}); err == nil {
		t.Fatal("Apply with mismatched spec should fail")
	}
}

func TestMutatedSourceReScannable(t *testing.T) {
	// The tool re-scans mutated sources in the container; a triggered
	// mutation must not create new matches of the same spec ad infinitum.
	mm, pts := compileAndScan(t, "WPF", `
change {
	$CALL#c{name=utils.Execute}(..., $STRING#s{val=*-*}, ...)
} into {
	$CALL#c(..., $CORRUPT($STRING#s), ...)
}`)
	res, err := Apply("client.go", []byte(target), mm, pts[0], Options{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	again, err := scanner.ScanSource("client.go", res.Source, []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatalf("re-scan: %v", err)
	}
	if len(again) != 0 {
		t.Errorf("mutated source still matches the spec %d times", len(again))
	}
}
