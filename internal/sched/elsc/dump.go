package elsc

import (
	"fmt"
	"strings"
)

// Dump renders the table in the style of the paper's Figure 1b: one line
// per populated list, highest first, tasks front-to-back with their static
// goodness, parked (zero-counter) tasks bracketed. A teaching and
// debugging view used by cmd/schedtrace.
func (s *Sched) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ELSC table: top=%d next_top=%d runnable=%d\n", s.top, s.nextTop, s.total)
	for idx := s.size - 1; idx >= 0; idx-- {
		if s.lists[idx].Empty() {
			continue
		}
		kind := "other"
		if idx >= s.rtLo {
			kind = "rt"
		}
		fmt.Fprintf(&b, "  [%2d %-5s] ", idx, kind)
		first := true
		for t := s.env.Tasks.First(&s.lists[idx]); t != nil; t = s.env.Tasks.Next(t) {
			if !first {
				b.WriteString(" -> ")
			}
			first = false
			if s.inZeroSection(t) {
				fmt.Fprintf(&b, "(%s c=0)", t.Name)
			} else if t.RealTime() {
				fmt.Fprintf(&b, "%s rt=%d", t.Name, t.RTPriority)
			} else {
				fmt.Fprintf(&b, "%s sg=%d", t.Name, t.StaticGoodness(s.env.Epoch))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
