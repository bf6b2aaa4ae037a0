package passes_test

import (
	"strings"
	"sync"
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/ir"
	"mpidetect/internal/irgen"
	"mpidetect/internal/passes"
)

// TestOptimizeIsPure checks that Optimize is a function of its module:
// ir.Print(Optimize(ir.Parse(x))) is byte-identical however many modules
// the process optimised before, and when 4 goroutines optimise at once.
// Inlined names used to come from a process-wide counter, which made the
// output depend on history and raced under concurrent Optimize calls.
func TestOptimizeIsPure(t *testing.T) {
	d := dataset.GenerateMBI(2)
	var srcs []string
	for i := 0; i < len(d.Codes); i += len(d.Codes) / 24 {
		srcs = append(srcs, ir.Print(irgen.MustLower(d.Codes[i].Prog)))
	}
	optimised := func(src string) string {
		m := ir.MustParse(src)
		passes.Optimize(m, passes.O2)
		return ir.Print(m)
	}
	want := make([]string, len(srcs))
	inlined := 0
	for i, src := range srcs {
		want[i] = optimised(src)
		if strings.Contains(want[i], "inl1.") {
			inlined++
		}
	}
	if inlined == 0 {
		t.Fatal("no sampled program was inlined; the test checks nothing")
	}
	for i, src := range srcs {
		if got := optimised(src); got != want[i] {
			t.Fatalf("program %d optimised differently on a second run:\n%s\nwant:\n%s", i, got, want[i])
		}
	}
	var wg sync.WaitGroup
	diffs := make([]int, 4)
	for g := range diffs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, src := range srcs {
				if optimised(src) != want[i] {
					diffs[g]++
				}
			}
		}()
	}
	wg.Wait()
	for g, n := range diffs {
		if n > 0 {
			t.Errorf("goroutine %d: %d of %d programs optimised differently", g, n, len(srcs))
		}
	}
}

// TestInlineNamesPastExistingClones inlines into a module that already
// holds "inl1." names, as a module optimised once does: the new clones
// must be numbered past them, or the function would hold two blocks
// named inl1.cont.
func TestInlineNamesPastExistingClones(t *testing.T) {
	m := ir.MustParse(`; module t
define i32 @sq(i32 %x) {
entry:
  %t1 = mul i32 %x, %x
  ret i32 %t1
}

define i32 @main() {
entry:
  %t1 = call i32 @sq(i32 6)
  br label %inl1.cont
inl1.cont:
  %inl1.v = add i32 %t1, 1
  ret i32 %inl1.v
}
`)
	if !passes.Inline(m, 50) {
		t.Fatal("Inline did nothing")
	}
	seen := map[string]bool{}
	for _, b := range m.FuncByName("main").Blocks {
		if seen[b.Name] {
			t.Fatalf("two blocks named %s:\n%s", b.Name, ir.Print(m))
		}
		seen[b.Name] = true
	}
	if !seen["inl2.cont"] {
		t.Fatalf("clones not numbered inl2:\n%s", ir.Print(m))
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, ir.Print(m))
	}
}
