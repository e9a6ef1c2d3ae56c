package core

import (
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"mxq/internal/ralg"
	"mxq/internal/xmark"
)

// ExplainPlan's #N is the node's number in the schedule the executor
// runs: on the 20 XMark plans the root line carries the last number,
// each input line under a node carries that node's input number, the
// numbers 0…len−1 each head exactly one node printed in full, and every
// (shared) line names a node printed above it.
func TestExplainPrintsScheduleIDs(t *testing.T) {
	e := New(DefaultConfig())
	for q := 1; q <= 20; q++ {
		st, err := e.compile(xmark.Query(q))
		if err != nil {
			t.Fatal(err)
		}
		if len(st.params) != 0 {
			t.Fatalf("Q%d declares parameters; the check reads one tree", q)
		}
		tree, err := e.ExplainPlan(xmark.Query(q))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkScheduleIDs(tree, st.plan); err != "" {
			t.Errorf("Q%d: %s\n%s", q, err, tree)
		}
	}
}

// checkScheduleIDs checks one explain tree against s and describes the
// first disagreement ("" when there is none).
func checkScheduleIDs(tree string, s ralg.Schedule) string {
	printed := make([]bool, len(s))
	// path[d] is the node printed in full at depth d above this line,
	// kids[d] how many of its inputs are printed
	var path, kids []int
	for _, line := range strings.Split(strings.TrimSuffix(tree, "\n"), "\n") {
		at := strings.IndexAny(line, "#<")
		depth := utf8.RuneCountInString(line[:at]) / 4
		id := -1
		if line[at] == '#' {
			num, _, _ := strings.Cut(line[at+1:], " ")
			id, _ = strconv.Atoi(num)
		}
		want := len(s) - 1
		if depth > 0 {
			parent := path[depth-1]
			if kids[depth-1] >= len(s[parent].In) {
				return "#" + strconv.Itoa(parent) + " prints more inputs than it has: " + line
			}
			want = s[parent].In[kids[depth-1]]
			kids[depth-1]++
		}
		switch {
		case id != want:
			return "want #" + strconv.Itoa(want) + ": " + line
		case id < 0:
		case strings.HasSuffix(line, " (shared)"):
			if !printed[id] {
				return "shared line names a node not printed above: " + line
			}
		case printed[id]:
			return "printed in full twice: " + line
		default:
			printed[id] = true
			path, kids = append(path[:depth], id), append(kids[:depth], 0)
		}
	}
	for id, ok := range printed {
		if !ok {
			return "#" + strconv.Itoa(id) + " is never printed"
		}
	}
	return ""
}
