package ir

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// novelStructIR is a module naming a struct the registry does not know,
// twice: as an alloca type and inside a pointer parameter type.
func novelStructIR(name string) string {
	return fmt.Sprintf(`; module novel
define i32 @main() {
entry:
  %%t1 = alloca %%struct.%[1]s
  %%t2 = call i32 @use(%%struct.%[1]s* %%t1)
  ret i32 0
}

declare i32 @use(%%struct.%[1]s*)
`, name)
}

// TestUnknownStructsStayPerParse parses client IR naming fresh structs
// from 4 goroutines at once, with both parsers. The shared registry must
// neither race (run under -race) nor grow, and within one module every
// mention of a name must resolve to one type.
func TestUnknownStructsStayPerParse(t *testing.T) {
	before := len(namedStructs)
	parsers := map[string]func(string) (*Module, error){"Parse": Parse, "ParseReference": ParseReference}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("client_%d_%d", g, i)
				src := novelStructIR(name)
				for pname, parse := range parsers {
					m, err := parse(src)
					if err != nil {
						errs <- fmt.Errorf("%s(%s): %v", pname, name, err)
						return
					}
					alloca := m.Funcs[0].Blocks[0].Instrs[0].AllocTy
					param := m.FuncByName("use").Sig.Params[0].Elem
					if alloca.SName != name || alloca != param {
						errs <- fmt.Errorf("%s(%s): alloca type %v and parameter type %v are not one struct", pname, name, alloca, param)
						return
					}
					if !strings.Contains(Print(m), "%struct."+name+"*") {
						errs <- fmt.Errorf("%s(%s): struct name lost in print", pname, name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if after := len(namedStructs); after != before {
		t.Fatalf("global struct registry grew from %d to %d entries", before, after)
	}
}
