package elsc_test

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// funcDecl matches a top-level function declaration and captures what
// census.sh names the function by: the receiver's type, for a method, and
// the function's own name.
var funcDecl = regexp.MustCompile(`^func (?:\((?:\w+ )?\*?(\w+)[^)]*\) )?(\w+)`)

// TestCensusAllowNamesLiveCode holds census.allow to the source, so a
// stale entry fails plain go test and not only the census run: every
// entry gives a reason and names a file that exists, a function that file
// declares and, unless it covers the whole function with *, a line of that
// function.
func TestCensusAllowNamesLiveCode(t *testing.T) {
	data, err := os.ReadFile("census.allow")
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string][]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		where := fmt.Sprintf("census.allow:%d", i+1)
		f := strings.Split(line, "\t")
		if len(f) != 4 || f[3] == "" {
			t.Errorf("%s: want file, function, source line and reason separated by tabs, got %q", where, line)
			continue
		}
		src, ok := sources[f[0]]
		if !ok {
			b, err := os.ReadFile(f[0])
			if err != nil {
				t.Errorf("%s: %v", where, err)
				continue
			}
			src = strings.Split(string(b), "\n")
			sources[f[0]] = src
		}
		body := funcLines(src, f[1])
		if body == nil {
			t.Errorf("%s: %s declares no function %s", where, f[0], f[1])
		} else if f[2] != "*" && !slices.ContainsFunc(body, func(l string) bool { return strings.TrimSpace(l) == f[2] }) {
			t.Errorf("%s: %s in %s has no line %q", where, f[1], f[0], f[2])
		}
	}
}

// funcLines returns the lines census.sh attributes to function name — from
// its declaration up to the next top-level func — or nil when src declares
// no such function.
func funcLines(src []string, name string) []string {
	for i, l := range src {
		m := funcDecl.FindStringSubmatch(l)
		if m == nil || strings.TrimPrefix(m[1]+"."+m[2], ".") != name {
			continue
		}
		end := i + 1
		for end < len(src) && !strings.HasPrefix(src[end], "func ") {
			end++
		}
		return src[i:end]
	}
	return nil
}
