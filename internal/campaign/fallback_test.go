package campaign_test

import (
	"strings"
	"testing"

	"profipy/internal/kvclient"
	"profipy/internal/obs"
)

// TestEngineFallbackIsObservable breaks the base-program compile both
// ways compileBase can fail and checks the campaign neither hides the
// tree-walk fallback nor labels any metric engine="bytecode".
func TestEngineFallbackIsObservable(t *testing.T) {
	cases := []struct {
		reason string
		breakC func(files map[string][]byte, wlFiles *[]string)
	}{
		{"compile_error", func(files map[string][]byte, _ *[]string) {
			// A bodyless declaration parses (so the scan is happy) but
			// every engine rejects it at load time.
			files[kvclient.FileAuth] = append(files[kvclient.FileAuth], "\nfunc External()\n"...)
		}},
		{"missing_file", func(_ map[string][]byte, wlFiles *[]string) {
			*wlFiles = append(*wlFiles, "workload/absent.go")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.reason, func(t *testing.T) {
			reg := obs.NewRegistry()
			c := kvclient.CampaignB(newRuntime(), 202)
			c.Metrics = reg
			c.SampleN = 3
			tc.breakC(c.Files, &c.Workload.Files)
			// The tree-walk trips over the same broken file as soon as the
			// coverage run loads the sources, so the campaign fails — but
			// only after having said why it was not running compiled code.
			if _, err := c.Run(); err == nil {
				t.Fatal("Run succeeded on a file set no engine can load")
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			want := `profipy_campaign_engine_fallback_total{reason="` + tc.reason + `"} 1`
			if !strings.Contains(out, want) {
				t.Errorf("metrics lack %q", want)
			}
			if strings.Contains(out, `engine="bytecode"`) {
				t.Errorf("a campaign that fell back to the tree-walk still labels metrics engine=\"bytecode\":\n%s", out)
			}
		})
	}
}
