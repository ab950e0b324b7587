package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"flowvalve/internal/analysis"
)

// TestRepoClean is the dogfood gate: the whole module must lint clean
// with the default tag set. Every suppression in the tree carries a
// justification, so a failure here is a genuine new violation.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide source type-check is slow; skipped in -short")
	}
	var buf bytes.Buffer
	code, err := run(&buf, "", []string{filepath.Join("..", "..") + "/..."})
	if err != nil {
		t.Fatalf("fvlint run: %v", err)
	}
	if code != 0 {
		t.Fatalf("fvlint found diagnostics:\n%s", buf.String())
	}
}

// TestRepoCleanFvassert lints the fvassert-tagged file set too: the
// assertion bodies themselves must honor the same invariants.
func TestRepoCleanFvassert(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide source type-check is slow; skipped in -short")
	}
	var buf bytes.Buffer
	code, err := run(&buf, "fvassert", []string{filepath.Join("..", "..") + "/..."})
	if err != nil {
		t.Fatalf("fvlint run: %v", err)
	}
	if code != 0 {
		t.Fatalf("fvlint -tags fvassert found diagnostics:\n%s", buf.String())
	}
}

func TestExpandRejectsEmpty(t *testing.T) {
	if _, err := expand([]string{t.TempDir()}); err == nil {
		t.Fatal("expected error for a directory with no Go files")
	}
}

// TestLintCoversNewPackages pins the lint surface: the repo-wide
// pattern CI runs must actually expand to the packages recent PRs
// added. A package silently dropping out of the walk (renamed, moved
// under an ignored directory) would otherwise pass CI unlinted.
func TestLintCoversNewPackages(t *testing.T) {
	dirs, err := expand([]string{filepath.Join("..", "..") + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range dirs {
		rel, err := filepath.Rel(filepath.Join("..", ".."), d)
		if err != nil {
			t.Fatal(err)
		}
		seen[filepath.ToSlash(rel)] = true
	}
	for _, want := range []string{
		"internal/pifo",
		"internal/experiments",
		"internal/fvassert",
		"internal/analysis",
		"internal/analysis/boxing",
		"internal/analysis/shardown",
		"internal/analysis/lockorder",
		"cmd/fvbenchstat",
		"cmd/fvbench",
		"cmd/fvsim",
		"cmd/fvlint",
	} {
		if !seen[want] {
			t.Errorf("lint walk missed %s; covered: %v", want, dirs)
		}
	}
}

// TestHotClosureCoversKnownRoots pins the interprocedural hot closure:
// the scheduling functions the bench gate guards must be //fv:hotpath
// roots, and the closure must actually reach the shared helpers they
// lean on. A root silently losing its annotation (or a coldpath cut
// accidentally severing a genuinely hot edge) would let the boxing
// analyzer go blind on exactly the code the ns/pkt budget protects.
func TestHotClosureCoversKnownRoots(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide source type-check is slow; skipped in -short")
	}
	root := filepath.Join("..", "..")
	dirs, err := expand([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(analysis.Config{Dir: dirs[0]})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	g := analysis.ModuleCallGraph(loader.Fset(), pkgs)
	roots := map[string]bool{}
	hot := map[string]bool{}
	for _, n := range g.Nodes() {
		name := analysis.FuncName(n.Obj)
		if n.HotRoot {
			roots[name] = true
		}
		if n.Hot {
			hot[name] = true
		}
	}
	for _, want := range []string{
		"core.(Scheduler).Schedule",
		"core.(Scheduler).ScheduleBatch",
		"core.(Scheduler).scheduleBatchOwner",
		"core.(ShardedScheduler).ScheduleBatch",
		"classifier.(Classifier).lookup",
		"classifier.(Classifier).ClassifyBurst",
		"nic.(NIC).beginServiceBatch",
		"pifo.(Sched).ScheduleBatch",
	} {
		if !roots[want] {
			t.Errorf("%s is not a //fv:hotpath root — the boxing analyzer no longer polices it", want)
		}
	}
	// Shared helpers that must stay inside the closure via propagation,
	// not annotation: if an edge cut severs them, boxing goes blind.
	for _, want := range []string{
		"core.(Scheduler).maybeUpdate",
		"core.(shardCtx).tryLease",
		"token.(Bucket).TryConsume",
		"pifo.(bank).admit",
		"pifo.(bank).drain",
	} {
		if !hot[want] {
			t.Errorf("%s fell out of the hot closure — a coldpath cut severed a genuinely hot edge", want)
		}
	}
	// The pifo admission kernel is reached from the label plane's batch
	// root by static calls alone: no interface dispatch (which ends
	// propagation) sits between them, so the kernel is in ScheduleBatch's
	// closure by reachability, not only by its own annotations.
	reach := map[string]bool{}
	var visit func(n *analysis.FuncNode)
	visit = func(n *analysis.FuncNode) {
		name := analysis.FuncName(n.Obj)
		if reach[name] {
			return
		}
		reach[name] = true
		for _, cs := range n.Calls {
			if callee := g.Node(cs.Callee); callee != nil {
				visit(callee)
			}
		}
	}
	for _, n := range g.Nodes() {
		if analysis.FuncName(n.Obj) == "pifo.(Sched).ScheduleBatch" {
			visit(n)
		}
	}
	for _, want := range []string{"pifo.(bank).admit", "pifo.(bank).drain"} {
		if !reach[want] {
			t.Errorf("%s is not statically reachable from pifo.(Sched).ScheduleBatch", want)
		}
	}
}
