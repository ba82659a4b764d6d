package repro_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/repro_api.txt")

// TestPublicSurface pins package repro's API: each exported name with its
// type and, for each type repro aliases, its exported fields and the
// method set of *T (of T for an interface). Deleting or changing anything
// callers outside the module can reach shows up as a diff here.
func TestPublicSurface(t *testing.T) {
	repro := loadProgram(t, ".").pkgs["repro"]
	var b strings.Builder
	for _, name := range repro.Scope().Names() {
		obj := repro.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		fmt.Fprintln(&b, types.ObjectString(obj, nil))
		tn, isType := obj.(*types.TypeName)
		named, ok := types.Unalias(obj.Type()).(*types.Named)
		if !isType || !tn.IsAlias() || !ok || !strings.HasPrefix(named.Obj().Pkg().Path(), "repro/") {
			continue
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fmt.Fprintf(&b, "\t%s\n", types.ObjectString(f, nil))
				}
			}
		}
		var recv types.Type = named
		if !types.IsInterface(named) {
			recv = types.NewPointer(named)
		}
		ms := types.NewMethodSet(recv)
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				fmt.Fprintf(&b, "\t%s\n", types.ObjectString(m, nil))
			}
		}
	}
	golden := filepath.Join("testdata", "repro_api.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("package repro's API differs from %s (rerun with -update if the change is meant):\n%s", golden, got)
	}
}

// program is the non-test code of the packages `go list -deps ./...` finds
// in some directories, type-checked from source into one Info, with the
// standard library read from export data.
type program struct {
	fset  *token.FileSet
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[*types.Package][]*ast.File
}

func loadProgram(t *testing.T, dirs ...string) *program {
	t.Helper()
	p := &program{token.NewFileSet(), &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}}, map[string]*types.Package{}, map[*types.Package][]*ast.File{}}
	exports := map[string]string{}
	std := importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkg := p.pkgs[path]; pkg != nil {
			return pkg, nil
		}
		return std.Import(path)
	})}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-export", "-f",
			"{{.ImportPath}}\t{{.Export}}{{if not .Standard}}\t{{.Dir}}{{range .GoFiles}}\t{{.}}{{end}}{{end}}", "./...")
		cmd.Dir, cmd.Stderr = dir, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			f := strings.Split(line, "\t")
			if exports[f[0]] = f[1]; len(f) < 3 || p.pkgs[f[0]] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range f[3:] {
				file, err := parser.ParseFile(p.fset, filepath.Join(f[2], name), nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, file)
			}
			pkg, err := conf.Check(f[0], p.fset, files, p.info)
			if err != nil {
				t.Fatal(err)
			}
			p.pkgs[f[0]], p.files[pkg] = pkg, files
		}
	}
	return p
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
