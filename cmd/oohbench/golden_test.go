package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// goldenRules makes the monitor raise alerts, so mon_alert records reach
// the trace and the explain report.
const goldenRules = "cpu/events{hypercall} > 0"

// goldenDigests are the sha256 digests of the four observability exports
// of each experiment, run at seed 42 as
//
//	oohbench -exp <id> -seed 42 -trace x.jsonl -metrics-export x.prom \
//	    -flame x.folded -rules 'cpu/events{hypercall} > 0' -explain x.json
//
// and hashed with sha256sum. The determinism suites compare two runs of
// the same binary, so a change that alters the output identically in both
// runs passes them; these digests pin the bytes across commits instead. A
// change that is meant to alter an export regenerates them with the
// command above and says why in its description.
var goldenDigests = map[string]map[string]string{
	"fig5": {
		"trace":   "c5d04837947cfa82b572a8994de266a9003afe1189dbbf8b75f07afac10e181a",
		"prom":    "ca90618b60b116455722b3f5fb68fe059f21a670899fbfe11bdad40438f26239",
		"folded":  "fca40a5ee3d976d665f6c2dccbc884c88c88470c31a39afc6a6c533229907e8a",
		"explain": "9cf5159ad0addac8483c91fd707936e08f0ed18d3f6324b9e04f0fa3b81dfb2e",
	},
	"fault-matrix": {
		"trace":   "a504ecc17be352a8ff5ff8f72ad67ce6ea1f536b632f7cd1d878c9c9e90d85bf",
		"prom":    "3c9ee15ce730fb1d12dbca6596865c52a2be739460a79799bf965ceae5acd255",
		"folded":  "482f6d0ee9aa1808b538c0b5a4eb55268221abc694c1de7217eba02e4bab742b",
		"explain": "dcaf2e5f5062443054926ae6dbda0046125a7ce60565aba841d054c44cef7fda",
	},
	"degradation-surface": {
		"trace":   "9472bb5edba887239b519ccd1ea874978878ae1d2a80234577510629b90361bc",
		"prom":    "020d02bcfd62515ae39e99597c2c8f362d84f1d0fa0e160677f10d3d492845a1",
		"folded":  "66b9e23222f4d987c6925ca377eb5a727a283ceabe9306734131e705729a86a8",
		"explain": "29c14a4a7d6ed60174d749aa4be53d99b39852578fdc7a18b59b97de8f689f05",
	},
	// fig7 is the only experiment that checkpoints (criu_md, criu_mw,
	// demand_fault); at ~2s it is skipped under -short.
	"fig7": {
		"trace":   "9c4d84c0a014f0f3588c9f1423991bab5b40d60cf4b4490151b9cadbf628ca16",
		"prom":    "403445c03d4aa250a1e2fdd6e16b2a59d406a94cd4b6ccf381b16958751976d2",
		"folded":  "7350c432f2b9e045f15af6324b8354c6966267975c0d3e465f02bd5e8afb918a",
		"explain": "e4a896507e3a008d89d7a8342a2f1fe018dbebe04092d1249618c6313eaa90a7",
	},
}

// goldenUncovered lists the mapped kinds no experiment emits, each with
// why; internal/experiments' TestEveryMappedKindEmits reaches them (or
// lists them) directly.
var goldenUncovered = map[trace.Kind]string{
	trace.KindVMExit:       "only an unshadowed guest vmread/vmwrite traps generically",
	trace.KindSPPViolation: "no experiment arms sub-page protection",
}

// TestGoldenExportDigests runs each golden experiment through the CLI's
// run path and requires its trace, metrics, profile and explain exports to
// hash to the committed digests. Together the experiments emit every kind
// the metrics bridge maps, except goldenUncovered (fig7 is needed for the
// CRIU kinds, so -short checks the digests but not the coverage).
func TestGoldenExportDigests(t *testing.T) {
	seen := make(map[string]bool)
	for _, id := range []string{"fig5", "fault-matrix", "degradation-surface", "fig7"} {
		if id == "fig7" && testing.Short() {
			continue
		}
		dir := t.TempDir()
		files := map[string]string{
			"trace":   filepath.Join(dir, "x.jsonl"),
			"prom":    filepath.Join(dir, "x.prom"),
			"folded":  filepath.Join(dir, "x.folded"),
			"explain": filepath.Join(dir, "x.json"),
		}
		bf := benchFlags{exp: id, scale: 1, workers: 2, seed: 42, benchTol: 0.5, trajTol: -1,
			traceFile: files["trace"], metExport: files["prom"], flamePath: files["folded"],
			rules: goldenRules, explainTo: files["explain"]}
		if err := run(bf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for plane, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got, want := hex.EncodeToString(sum[:]), goldenDigests[id][plane]; got != want {
				t.Errorf("%s %s export: sha256 %s, golden %s", id, plane, got, want)
			}
		}
		f, err := os.Open(files["trace"])
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var r struct{ Kind string }
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatal(err)
			}
			seen[r.Kind] = true
		}
		f.Close()
	}
	if testing.Short() {
		return
	}
	for k := trace.Kind(0); int(k) < trace.NumKinds(); k++ {
		if metrics.KindSubsystem(k) == "other" {
			continue
		}
		if _, ok := goldenUncovered[k]; ok == seen[k.String()] {
			t.Errorf("%v: emitted %v, listed uncovered %v", k, seen[k.String()], ok)
		}
	}
}
