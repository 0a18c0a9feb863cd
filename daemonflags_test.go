// Guard on the daemons' command lines, the flag-level twin of
// options_test.go: every flag cmd/brokerd and cmd/queuerouter declare is
// passed by a command line an operator can copy — a code block of
// README.md or a step of the CI workflow, which runs them — or is named
// in flagReasons as a deployment setting or a parameter of the paper.
// A flag with neither is a branch no deployment takes; it becomes the
// value it defaults to.
package repro

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// daemons are the commands whose flags the guard checks.
var daemons = []string{"brokerd", "queuerouter"}

// flagSources are the files whose command lines credit a flag.
var flagSources = []string{"README.md", ".github/workflows/ci.yml"}

// flagReasons names the flags that stay without a command line that
// passes them, keyed "daemon -flag", each with its reason. An entry whose
// flag is gone, or that a command line now passes, fails the guard.
var flagReasons = map[string]string{
	"brokerd -max-receives":       "the paper's retry cap: a task received this many times is dead-lettered",
	"queuerouter -transfer-token": "a credential, provisioned per deployment and not written into a shared command line",
}

func TestEveryDaemonFlagHasACaller(t *testing.T) {
	declared := map[string]bool{} // "daemon -flag"
	for _, d := range daemons {
		for _, name := range declaredFlags(t, "cmd/"+d+"/main.go") {
			declared[d+" -"+name] = true
		}
	}
	credited := map[string]string{} // "daemon -flag" → where a command line passes it
	for _, src := range flagSources {
		for where, line := range commandLines(t, src) {
			for key := range passedFlags(line) {
				if !declared[key] {
					t.Errorf("%s: %s is passed but not declared: fix the command line", where, key)
				}
				if _, ok := credited[key]; !ok {
					credited[key] = where
				}
			}
		}
	}

	var missing []string
	for key := range declared {
		_, hasReason := flagReasons[key]
		if _, ok := credited[key]; !ok && !hasReason {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d daemon flags are passed by no README or CI command line and have no reason; make each the constant it defaults to, or pass it in a command line:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
	for key, reason := range flagReasons {
		switch where, ok := credited[key]; {
		case !declared[key]:
			t.Errorf("flagReasons lists %s, which no daemon declares: drop the entry", key)
		case ok:
			t.Errorf("flagReasons lists %s, which %s passes: drop the entry", key, where)
		case reason == "":
			t.Errorf("flagReasons lists %s without a reason", key)
		}
	}
}

// declaredFlags returns the names a main.go declares with the flag
// package's top-level functions (flag.String, flag.DurationVar, …).
func declaredFlags(t *testing.T, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1 // flag.IntVar(&v, "name", …), flag.Var(v, "name", …)
		}
		if len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ := strconv.Unquote(lit.Value)
			names = append(names, name)
		}
		return true
	})
	if len(names) == 0 {
		t.Fatalf("%s declares no flags: has the parser lost them?", file)
	}
	return names
}

// commandLines returns the shell lines of a source, keyed "file:line":
// a Markdown file's fenced code blocks, or every line of a workflow, with
// backslash continuations joined and comment lines dropped.
func commandLines(t *testing.T, file string) map[string]string {
	t.Helper()
	fh, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	markdown := strings.HasSuffix(file, ".md")
	out := map[string]string{}
	inCode := !markdown
	var pending string
	sc := bufio.NewScanner(fh)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if markdown && strings.HasPrefix(line, "```") {
			inCode = !inCode
			continue
		}
		if !inCode || strings.HasPrefix(line, "#") {
			continue
		}
		if cont, ok := strings.CutSuffix(line, "\\"); ok {
			pending += cont + " "
			continue
		}
		out[file+":"+strconv.Itoa(n)] = pending + line
		pending = ""
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// passedFlags returns the "daemon -flag" keys one shell line passes: the
// dash-led words of each command on it that runs a daemon — its first
// word names one (./cmd/brokerd, "$bin/queuerouter"), or it is go run
// of one — up to a command separator or a comment.
func passedFlags(line string) map[string]bool {
	keys := map[string]bool{}
	var cmd []string
	flush := func() {
		if len(cmd) > 0 && cmd[0] == "run:" {
			cmd = cmd[1:] // a one-line workflow step
		}
		if len(cmd) > 2 && cmd[0] == "go" && cmd[1] == "run" {
			cmd = cmd[2:]
		}
		if len(cmd) > 0 && isDaemon(path.Base(cmd[0])) {
			for _, word := range cmd[1:] {
				if strings.HasPrefix(word, "-") && len(word) > 1 {
					name, _, _ := strings.Cut(strings.TrimLeft(word, "-"), "=")
					keys[path.Base(cmd[0])+" -"+name] = true
				}
			}
		}
		cmd = cmd[:0]
	}
	for _, word := range strings.Fields(line) {
		word = strings.Trim(word, `"'`)
		if strings.HasPrefix(word, "#") {
			break
		}
		switch word {
		case "&", "&&", "|", "||", ";":
			flush()
		default:
			cmd = append(cmd, word)
		}
	}
	flush()
	return keys
}

func isDaemon(name string) bool {
	for _, d := range daemons {
		if name == d {
			return true
		}
	}
	return false
}
