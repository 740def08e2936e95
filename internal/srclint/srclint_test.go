package srclint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func lintFixture(t *testing.T, fixture, rel string) []Finding {
	t.Helper()
	findings, err := CheckPackageDir(filepath.Join("testdata", fixture), rel)
	if err != nil {
		t.Fatalf("CheckPackageDir(%s): %v", fixture, err)
	}
	return findings
}

func countRule(findings []Finding, rule string) int {
	n := 0
	for _, f := range findings {
		if f.Rule == rule {
			n++
		}
	}
	return n
}

func TestGoroutineRule(t *testing.T) {
	findings := lintFixture(t, "goroutine", "internal/iterate")
	if got := countRule(findings, "goroutine"); got != 2 {
		t.Fatalf("goroutine findings = %d, want 2: %v", got, findings)
	}
	// The same file inside an engine package is fine.
	for _, rel := range []string{"internal/exec", "internal/cluster", "internal/checkpoint"} {
		if fs := lintFixture(t, "goroutine", rel); countRule(fs, "goroutine") != 0 {
			t.Fatalf("goroutine rule fired under %s: %v", rel, fs)
		}
	}
}

func TestPanicPrefixRule(t *testing.T) {
	findings := lintFixture(t, "panicprefix", "internal/state")
	if got := countRule(findings, "panicprefix"); got != 2 {
		t.Fatalf("panicprefix findings = %d, want 2: %v", got, findings)
	}
	for _, f := range findings {
		if !strings.Contains(f.Msg, `"state: "`) {
			t.Fatalf("finding does not name the wanted prefix: %v", f)
		}
	}
}

func TestDeterminismRule(t *testing.T) {
	findings := lintFixture(t, "determinism", "internal/recovery")
	if got := countRule(findings, "determinism"); got != 3 {
		t.Fatalf("determinism findings = %d, want 3 (import, Now, Since): %v", got, findings)
	}
	// Outside the replay packages the same file is legal.
	if fs := lintFixture(t, "determinism", "internal/metrics"); countRule(fs, "determinism") != 0 {
		t.Fatalf("determinism rule fired outside replay packages: %v", fs)
	}
}

func TestGlobalVarRule(t *testing.T) {
	findings := lintFixture(t, "globalvar", "internal/algo/pagerank")
	if got := countRule(findings, "globalvar"); got != 2 {
		t.Fatalf("globalvar findings = %d, want 2: %v", got, findings)
	}
	names := ""
	for _, f := range findings {
		names += f.Msg
	}
	if !strings.Contains(names, `"iterations"`) || !strings.Contains(names, `"callCount"`) {
		t.Fatalf("wrong vars flagged: %v", findings)
	}
	if strings.Contains(names, `"Inf"`) || strings.Contains(names, `"damping"`) {
		t.Fatalf("read-only or shadowed var flagged: %v", findings)
	}
	// Outside internal/algo the rule does not apply.
	if fs := lintFixture(t, "globalvar", "internal/graph"); countRule(fs, "globalvar") != 0 {
		t.Fatalf("globalvar rule fired outside internal/algo: %v", fs)
	}
}

func TestValidateAllowlists(t *testing.T) {
	// Against the real repo every allowlisted package must exist.
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if fs := ValidateAllowlists(root); len(fs) != 0 {
		t.Fatalf("allowlists are stale against the repo: %v", fs)
	}
	// Against a synthetic root where only some packages exist, every
	// missing entry must be flagged — the lists are hand-maintained and
	// have drifted before (internal/supervise was added late).
	tmp := t.TempDir()
	for _, rel := range []string{"internal/exec", "internal/recovery"} {
		dir := filepath.Join(tmp, filepath.FromSlash(rel))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte("package p\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs := ValidateAllowlists(tmp)
	if len(fs) == 0 {
		t.Fatal("no stale entries flagged against a mostly-empty root")
	}
	wantMissing := []string{"internal/cluster", "internal/checkpoint", "internal/iterate", "internal/supervise"}
	for _, entry := range wantMissing {
		found := false
		for _, f := range fs {
			if f.Rule == "allowlist" && strings.Contains(f.Msg, `"`+entry+`"`) {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing package %s not flagged: %v", entry, fs)
		}
	}
	for _, f := range fs {
		if strings.Contains(f.Msg, `"internal/exec"`) || strings.Contains(f.Msg, `"internal/recovery"`) {
			t.Fatalf("existing package flagged as stale: %v", f)
		}
	}
}

func TestCleanFixtureIsQuiet(t *testing.T) {
	for _, rel := range []string{"internal/recovery", "internal/algo/cc", "internal/checkpoint"} {
		if fs := lintFixture(t, "clean", rel); len(fs) != 0 {
			t.Fatalf("clean fixture produced findings under %s: %v", rel, fs)
		}
	}
}

// TestRepositoryIsClean runs the full linter over the repo the same way
// CI does (go run ./cmd/optiflow-vet ./...): the tree must be free of
// violations, so every seeded-fixture test above proves a rule that is
// actually enforceable on main.
func TestRepositoryIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Check(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		msgs := make([]string, len(findings))
		for i, f := range findings {
			msgs[i] = f.String()
		}
		t.Fatalf("repository has %d lint finding(s):\n%s", len(findings), strings.Join(msgs, "\n"))
	}
}

func TestFindingsAreDeterministicallyOrdered(t *testing.T) {
	root, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	// Lint all fixtures as if testdata were a repo root; ordering must
	// be stable across runs.
	first, err := Check(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Check(root, []string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatalf("finding count changed: %d vs %d", len(again), len(first))
		}
		for j := range again {
			if again[j].String() != first[j].String() {
				t.Fatalf("order changed at %d: %v vs %v", j, again[j], first[j])
			}
		}
	}
}
