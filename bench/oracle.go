package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mxq/internal/naive"
	"mxq/internal/xmark"
	"mxq/internal/xqt"
)

// oracleOut is the reference for one refSpec. References never come
// from the engine under test: internal/naive, the DOM interpreter the
// differential tests use, evaluates every one.
type oracleOut struct {
	Digest string `json:"digest,omitempty"` // SHA-256 of the serialized result
	Raw    string `json:"raw,omitempty"`
	Err    bool   `json:"err,omitempty"` // the oracle raised an error
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// computeOracle evaluates every reference of in with the naive
// interpreter over DOM trees generated from the same seeds as the
// engine's documents.
func computeOracle(in *inputs) ([]oracleOut, error) {
	interps := make(map[corpus]*naive.Interp)
	interp := func(c corpus) *naive.Interp {
		if it := interps[c]; it != nil {
			return it
		}
		it := naive.New()
		switch c {
		case corpusDoc:
			it.LoadDOM(docName, xmark.NewDOM(in.Factor, in.Seed, it.OrdCounter()))
		case corpusBase:
			for i := 0; i < in.Scale.ChurnDocs; i++ {
				it.AddCollectionDOM(collName, xmark.NewDOM(in.Factor, in.Seed+int64(i), it.OrdCounter()))
			}
		case corpusDelta:
			it.AddCollectionDOM(collName, xmark.NewDOM(in.Scale.DeltaFactor, in.Seed+deltaSeed, it.OrdCounter()))
		}
		interps[c] = it
		return it
	}
	out := make([]oracleOut, len(in.Refs))
	for i, r := range in.Refs {
		var binds map[string][]naive.Val
		if r.Min != nil {
			binds = map[string][]naive.Val{"min": {{Atom: xqt.Int(*r.Min)}}}
		}
		s, err := interp(r.Corpus).QueryStringBound(r.Query, binds)
		switch {
		case err != nil && r.Optional:
			out[i].Err = true
		case err != nil:
			return nil, fmt.Errorf("oracle: %s: %w", r.ID, err)
		default:
			out[i].Digest = digest([]byte(s))
			if r.Raw {
				out[i].Raw = s
			}
		}
	}
	return out, nil
}

// golden holds the committed references of the default seed at full
// scale, one file per workload, written by -regen-golden.
//
//go:embed golden
var golden embed.FS

const goldenSeed = 42

type goldenFile struct {
	Seed int64       `json:"seed"`
	Out  []oracleOut `json:"out"`
}

func goldenFor(w *workload, in *inputs) []oracleOut {
	if in.Seed != goldenSeed || in.Scale.Name != "full" {
		return nil
	}
	raw, err := golden.ReadFile("golden/" + w.name + ".json")
	if err != nil {
		return nil
	}
	var g goldenFile
	if json.Unmarshal(raw, &g) != nil || g.Seed != in.Seed || len(g.Out) != len(in.Refs) {
		return nil
	}
	return g.Out
}

func regenGolden(dir string) error {
	for i := range workloads {
		w := &workloads[i]
		out, err := computeOracle(w.inputs(goldenSeed, fullScale))
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		raw, err := json.MarshalIndent(goldenFile{Seed: goldenSeed, Out: out}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, w.name+".json"), append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "golden: %s: %d references\n", w.name, len(out))
	}
	return nil
}

// references returns the oracle's outputs for in: the committed golden
// file when it applies, otherwise a live naive evaluation. At full
// scale the evaluation runs in a child process, before the engine under
// test is opened, so that the interpreter's DOM trees neither count
// into peak_rss_mb nor leave garbage behind for the timed phase.
func references(w *workload, in *inputs) ([]oracleOut, error) {
	if out := goldenFor(w, in); out != nil {
		return out, nil
	}
	if in.Scale.Name != "full" {
		return computeOracle(in)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-oracle", "-workload", w.name, "-seed", strconv.FormatInt(in.Seed, 10))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output() // Output waits for the child to exit
	if err != nil {
		return nil, fmt.Errorf("oracle child: %w", err)
	}
	var out []oracleOut
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("oracle child: %w", err)
	}
	if len(out) != len(in.Refs) {
		return nil, fmt.Errorf("oracle child returned %d references for %d specs", len(out), len(in.Refs))
	}
	return out, nil
}

// checker verifies one client's outputs. Each output is compared with
// the first one seen for the same reference (a memcmp, outside the
// timed interval); at the end each first output's digest is compared
// with the oracle's.
type checker struct {
	e       *env
	first   [][]byte
	firstOK []bool
	notes   []string
}

func newChecker(e *env) *checker {
	return &checker{e: e, first: make([][]byte, len(e.want)), firstOK: make([]bool, len(e.want))}
}

func (c *checker) note(format string, args ...any) {
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// ok reports whether out is acceptable for o.
func (c *checker) ok(o *op, out []byte) bool {
	class := c.e.classes[o.class]
	if o.ref < 0 {
		if err := c.e.churn.check(o.class, out); err != nil {
			c.note("%s: %v", class, err)
			return false
		}
		return true
	}
	if c.first[o.ref] == nil {
		c.first[o.ref] = append([]byte{}, out...)
		d, want := digest(out), c.e.want[o.ref].Digest
		c.firstOK[o.ref] = d == want
		if d != want {
			c.note("%s: output digest %.12s differs from the reference %.12s (%d bytes)", class, d, want, len(out))
		}
	} else if !bytes.Equal(out, c.first[o.ref]) {
		c.note("%s: output changed between executions", class)
		return false
	}
	return c.firstOK[o.ref]
}

// check enforces collection-churn's snapshot invariant on one read:
// the output equals base + k·delta for one k, with every add that was
// registered before the read began included, none beyond those issued,
// and k never decreasing for the reader.
func (c *churn) check(q int, out []byte) error {
	k, err := c.addsSeen(q, string(out))
	if err != nil {
		return err
	}
	if k < 0 { // the added document contributes nothing to this query
		return nil
	}
	if k < c.doneAtStart || k > c.issued.Load() || k < c.lastK {
		return fmt.Errorf("read saw %d adds; %d were registered before it began, %d issued, previous read saw %d",
			k, c.doneAtStart, c.issued.Load(), c.lastK)
	}
	c.lastK = k
	return nil
}

// churnRef is the oracle's output for one churn query, parsed: a list
// of names for the names query, a number for the others.
type churnRef struct {
	n     int64
	names []string
}

func parseChurn(q int, out string) (churnRef, error) {
	if churnQueries[q].id == "names" {
		return churnRef{names: splitNames(out)}, nil
	}
	n, err := strconv.ParseInt(out, 10, 64)
	if err != nil {
		return churnRef{}, fmt.Errorf("%s: result %.40q is not an integer", churnQueries[q].id, out)
	}
	return churnRef{n: n}, nil
}

// addsSeen returns the k for which out equals base + k·delta, or -1
// when the added document contributes nothing to the query and out
// equals base.
func (c *churn) addsSeen(q int, out string) (int64, error) {
	got, err := parseChurn(q, out)
	if err != nil {
		return 0, err
	}
	base, delta := c.base[q], c.delta[q]
	if churnQueries[q].id == "names" {
		if len(delta.names) == 0 {
			return -1, sameNames(got.names, base.names)
		}
		k := (len(got.names) - len(base.names)) / len(delta.names)
		if k < 0 {
			return 0, fmt.Errorf("%d names, fewer than the base collection's %d", len(got.names), len(base.names))
		}
		want := append([]string{}, base.names...)
		for i := 0; i < k; i++ {
			want = append(want, delta.names...)
		}
		return int64(k), sameNames(got.names, want)
	}
	if delta.n == 0 {
		if got.n != base.n {
			return 0, fmt.Errorf("result %d, reference %d", got.n, base.n)
		}
		return -1, nil
	}
	if got.n < base.n || (got.n-base.n)%delta.n != 0 {
		return 0, fmt.Errorf("result %d is not %d + k*%d", got.n, base.n, delta.n)
	}
	return (got.n - base.n) / delta.n, nil
}

func splitNames(s string) []string {
	parts := strings.SplitAfter(s, "</n>")
	return parts[:len(parts)-1] // the remainder after the last </n> is empty
}

func sameNames(got, want []string) error {
	g, w := append([]string{}, got...), append([]string{}, want...)
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, "") != strings.Join(w, "") {
		return fmt.Errorf("names differ from the reference multiset (%d vs %d)", len(g), len(w))
	}
	return nil
}
