//go:build race

// Race-gated: the node array moves when the unique table doubles (to a
// reserve sized for the next doubling) and again when Trim drops that
// reserve. Views captured just before either move keep the old array, so
// readers must be able to Eval every Ref a view holds while the writer
// keeps creating nodes. Only the race detector can show that no write
// reaches memory a view reads.

package bdd

import (
	"math/rand"
	"sync"
	"testing"
)

// growNext reports whether the next node created doubles the unique table.
func (t *Table) growNext() bool { return (len(t.nodes)-1)*4 >= len(t.buckets)*3 }

// viewCase is a captured view with the answers Eval gave for every Ref it
// holds under a fixed set of assignments, computed before any reader ran.
type viewCase struct {
	name   string
	v      View
	assign [][]byte
	want   [][]bool // want[i][r]: Eval(Ref(r), assign[i])
}

func captureView(name string, t *Table, assign [][]byte) viewCase {
	c := viewCase{name: name, v: t.View(), assign: assign}
	for _, a := range assign {
		row := make([]bool, c.v.NumNodes())
		for r := range row {
			row[r] = c.v.Eval(Ref(r), a)
		}
		c.want = append(c.want, row)
	}
	return c
}

func TestViewsSurviveNodeArrayMoves(t *testing.T) {
	const vars = 24
	tb := New(vars)
	rng := rand.New(rand.NewSource(51))
	// addNode creates at least one node: a random cube, sometimes ORed
	// with the previous one.
	prev := False
	addNode := func() {
		for before := tb.Size(); tb.Size() == before; {
			var vs []int
			var vals []bool
			for v := 0; v < vars; v++ {
				if rng.Intn(3) == 0 {
					vs = append(vs, v)
					vals = append(vals, rng.Intn(2) == 0)
				}
			}
			c := tb.Cube(vs, vals)
			if rng.Intn(4) == 0 {
				c = tb.Or(c, prev)
			}
			prev = c
		}
	}
	assign := make([][]byte, 16)
	for i := range assign {
		assign[i] = make([]byte, vars)
		for v := range assign[i] {
			assign[i][v] = byte(rng.Intn(2))
		}
	}

	// Stop at the last node the current unique table takes: the next node
	// doubles it and moves the array.
	for !tb.growNext() {
		lo, hi := Ref(rng.Intn(tb.Size())), Ref(rng.Intn(tb.Size()))
		if top := min(tb.levelOf(lo), tb.levelOf(hi)); top > 0 {
			tb.mk(rng.Int31n(top), lo, hi)
		}
	}
	cases := []viewCase{captureView("before growth", tb, assign)}

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan string, 1)
	read := func(c viewCase) {
		defer wg.Done()
		for {
			for i, a := range c.assign {
				for r, want := range c.want[i] {
					if got := c.v.Eval(Ref(r), a); got != want {
						select {
						case errs <- c.name:
						default:
						}
						return
					}
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}
	wg.Add(1)
	go read(cases[0])

	// The writer grows the table past the doubling, captures a view with
	// spare capacity reserved, trims, and keeps creating nodes into the
	// trimmed array and past the next doubling.
	grown := len(tb.buckets)
	for len(tb.buckets) == grown {
		addNode()
	}
	addNode()
	reserved := cap(tb.nodes)
	if reserved == len(tb.nodes) {
		t.Fatal("no reserve after the unique table doubled")
	}
	cases = append(cases, captureView("before trim", tb, assign))
	wg.Add(1)
	go read(cases[1])
	tb.Trim()
	if cap(tb.nodes) >= reserved {
		t.Fatalf("Trim kept capacity %d for %d nodes", cap(tb.nodes), len(tb.nodes))
	}
	grown = len(tb.buckets)
	for len(tb.buckets) == grown {
		addNode()
	}
	for i := 0; i < 500; i++ {
		addNode()
	}
	close(done)
	wg.Wait()
	select {
	case name := <-errs:
		t.Fatalf("a view captured %s evaluated a Ref differently while the writer ran", name)
	default:
	}
	// Every Ref a view holds still means the same in the live table.
	for _, c := range cases {
		for i, a := range c.assign {
			for r, want := range c.want[i] {
				if tb.Eval(Ref(r), a) != want {
					t.Fatalf("ref %d changed meaning after the view %s", r, c.name)
				}
			}
		}
	}
}
