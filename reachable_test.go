package provirt

import (
	"errors"
	"flag"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// unreachableKept lists the declarations no main package reaches that
// stay anyway. A key is "<package dir>.<Name>" or "<package
// dir>.<Type>.<Member>"; a value opens with one of four reasons:
//
//	paper:       the paper describes it and no bundled program exercises it
//	observation: tests outside its package read the model through it, so
//	             it cannot move into the one test file that uses it
//	ablation:    the subject of a TestAblation* that EXPERIMENTS.md cites
//	frozen:      under bench/, which changes only together with BENCHMARK.json
//
// Whatever a kept declaration reaches is live too: OpCreate keeps the
// FuncOffset chain, ImbalanceTrigger keeps PELoads and Imbalance. A
// field is listed when it is reached but no main package sets it.
var unreachableKept = map[string]string{
	"internal/ampi.Rank.OpCreate":       "paper: MPI_Op_create stores a user reduction's code-segment offset, not its address (§3.3)",
	"internal/ampi.World.ApplyOpOnPE":   "paper: a PE with no resident rank has no code segment to resolve that offset against (§3.3)",
	"internal/ampi.Program.ReduceFuncs": "paper: the user reduction functions that offset names, which no bundled workload defines (§3.3)",
	"internal/core.PieglobalsFind":      "paper: pieglobalsfind, the debugging aid that maps a privatized address back to the one debug symbols describe (§3.3); TestPieglobalsFind checks it",

	"internal/core.VarHandle.Privatized":     "observation: which storage classes a method privatizes, Tables 1 and 3 (core, ampi tests)",
	"internal/elf.Instance.GOTEntryForVar":   "observation: where a GOT slot points after §3.3's rebase (elf, core tests)",
	"internal/elf.Image.VarLookups":          "observation: symbol-table probes, the guard that an inner loop resolves a handle once (jacobi tests)",
	"internal/elf.Builder.Ctor":              "observation: builds the static-constructor images the privatization tests load (core tests)",
	"internal/elf.Builder.SharedDeps":        "observation: builds the shared-object images FSglobals refuses (core, scenario tests)",
	"internal/machine.SharedFS.Exists":       "observation: what FSglobals and checkpoints left on the filesystem (machine, core, ampi tests)",
	"internal/machine.SharedFS.TotalBytes":   "observation: bytes FSglobals wrote per rank (loader, core tests)",
	"internal/mem.AddressSpace.Find":         "observation: which mapping holds an address (mem, machine tests)",
	"internal/loader.Linker.NamespacesInUse": "observation: the dlmopen namespace census behind PIPglobals' rank limit (core tests)",
	"internal/trace.Table.NumRows":           "observation: row count of a rendered figure (trace, harness tests)",
	"internal/ampi.FlatWorld.Dispatches":     "observation: engine events really dispatched, which the cascade oracle and the metrics tests pin (ampi, ampi_test)",

	"internal/lb.ImbalanceTrigger": "ablation: TestAblationLBTrigger, the adaptive balancing trigger",
	"internal/ampi.Config.Trigger": "ablation: TestAblationLBTrigger, the gate in front of the balancer",
	"internal/machine.Config.Cost": "ablation: TestAblationMigrationBandwidth and TestAblationJacobiNoHoisting, a cost model other than the default",
}

// update rewrites benchOnlyGolden from the current tree.
var update = flag.Bool("update", false, "rewrite "+benchOnlyGolden+" from the current tree")

// benchOnlyGolden lists, one per line and sorted, each declaration
// under cmd/ and internal/ that only bench/ reaches, and each reached
// field that only bench/ sets: what stays because the frozen benchmark
// uses it, and goes when the benchmark stops.
const benchOnlyGolden = "testdata/bench_only.golden"

var keptReasons = map[string]bool{"paper": true, "observation": true, "ablation": true, "frozen": true}

// implicitMethods are method names the standard library calls through
// its own interfaces (fmt, sort, container/heap, io, net/http,
// encoding/json, flag, errors), so no call need appear in the module.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Flush": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true, "Set": true,
	"MarshalText": true, "UnmarshalText": true,
}

// TestEveryDeclarationIsReachable type-checks every non-test package of
// the module and fails on a function, method, type or struct field that
// no main package reaches and unreachableKept does not list. Roots are
// each main, every init, every package-level var and const, and the
// kept declarations; a reached body or type declaration reaches what it
// refers to. A call through an interface method reaches the method of
// that name on every reached type, and so do the names in
// implicitMethods. A json-tagged field is used by reflection (`json:"-"`
// is no tag: the codec never touches the field), and a positional
// composite literal uses every field.
//
// A reached struct field must also be set by reached code, or it is an
// option no program turns. Setting is a keyed or positional composite
// literal, an assignment, ++ or --, taking its address, or calling a
// pointer-receiver method on it; a json-tagged field is set by the
// decoder. A kept field counts as set, and so does every field of a
// type a kept declaration is or takes.
//
// The same reach from cmd/ and internal/ alone, bench/'s roots and
// frozen entries left out, must leave unreached or unset exactly what
// benchOnlyGolden lists (go test -run TestEveryDeclarationIsReachable
// -update . rewrites it).
func TestEveryDeclarationIsReachable(t *testing.T) {
	p := loadProgram(t, "internal", "cmd", "bench")
	kept := map[types.Object]string{}
	for key, why := range unreachableKept {
		reason, _, _ := strings.Cut(why, ":")
		switch obj := p.byKey[key]; {
		case !keptReasons[reason] || reason == "frozen" && !strings.HasPrefix(key, "bench."):
			t.Errorf("unreachableKept[%s]: %q is not one of paper, observation, ablation, frozen (under bench/)", key, reason)
		case obj == nil:
			t.Errorf("unreachableKept lists %s, which is gone: drop the entry", key)
		default:
			kept[obj] = key
		}
	}
	for obj, key := range kept {
		var others []types.Object
		for o := range kept {
			if o != obj {
				others = append(others, o)
			}
		}
		live, set := p.reach(p.roots, others)
		switch {
		case isField(obj) && live[obj] && set[obj]:
			t.Errorf("unreachableKept lists %s, which is reached and set without it: drop the entry", key)
		case !isField(obj) && live[obj]:
			t.Errorf("unreachableKept lists %s, which is reachable without it: drop the entry", key)
		}
	}
	var roots []types.Object
	for obj := range kept {
		roots = append(roots, obj)
	}
	live, set := p.reach(p.roots, roots)
	var dead, unset []string
	for obj, key := range p.byObj {
		at := p.fset.Position(obj.Pos()).String() + ": " + key
		switch {
		case !live[obj]:
			dead = append(dead, at)
		case isField(obj) && !set[obj]:
			unset = append(unset, at)
		}
	}
	sort.Strings(dead)
	sort.Strings(unset)
	for _, d := range dead {
		t.Errorf("%s is unreachable from every main package: delete it, or move it into the test that uses it", d)
	}
	for _, u := range unset {
		t.Errorf("%s is read but no reached code sets it: delete it and what it selects, or set it from a main package", u)
	}

	inBench := func(pos token.Pos) bool { return strings.HasPrefix(p.fset.Position(pos).Filename, "bench/") }
	var ownRoots []ast.Node
	for _, n := range p.roots {
		if !inBench(n.Pos()) {
			ownRoots = append(ownRoots, n)
		}
	}
	var ownKept []types.Object
	for _, obj := range roots {
		if !inBench(obj.Pos()) {
			ownKept = append(ownKept, obj)
		}
	}
	ownLive, ownSet := p.reach(ownRoots, ownKept)
	var benchOnly []string
	for obj, key := range p.byObj {
		switch {
		case inBench(obj.Pos()) || !live[obj]:
		case !ownLive[obj]:
			benchOnly = append(benchOnly, key+" reached only from bench/")
		case isField(obj) && set[obj] && !ownSet[obj]:
			benchOnly = append(benchOnly, key+" set only in bench/")
		}
	}
	sort.Strings(benchOnly)
	got := strings.Join(benchOnly, "\n") + "\n"
	if *update {
		if err := os.WriteFile(benchOnlyGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(benchOnlyGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("what only bench/ reaches or sets differs from %s (rerun with -update and read the diff):\n%s", benchOnlyGolden, got)
	}
}

func isField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField()
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// program is the module's non-test code, type-checked package by
// package in import order.
type program struct {
	fset  *token.FileSet
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package // module import path -> package
	roots []ast.Node                // main and init bodies, package-level vars and consts
	body  map[types.Object]ast.Node // declaration -> what reaching it reaches
	byObj map[types.Object]string   // judged declaration -> key
	byKey map[string]types.Object
}

func loadProgram(t *testing.T, dirs ...string) *program {
	p := &program{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		std:   importer.Default(),
		pkgs:  map[string]*types.Package{},
		body:  map[types.Object]ast.Node{},
		byObj: map[types.Object]string{},
		byKey: map[string]types.Object{},
	}
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			_, err = p.Import("provirt/" + filepath.ToSlash(path))
			if errors.As(err, new(*build.NoGoError)) {
				return nil
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// Import type-checks a module package from source after the module
// packages it imports; the standard library comes from export data.
func (p *program) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "provirt/")
	if !ok {
		return p.std.Import(path)
	}
	if pkg := p.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: p}).Check(path, p.fset, files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = pkg
	for _, f := range files {
		p.declare(dir, pkg, f)
	}
	return pkg, nil
}

// declare records a file's package-level declarations: the roots, and
// the functions, methods, types and fields the test judges.
func (p *program) declare(dir string, pkg *types.Package, f *ast.File) {
	judge := func(id *ast.Ident, key string, body ast.Node) {
		obj := p.info.Defs[id]
		p.body[obj] = body
		if id.Name != "_" {
			p.byObj[obj], p.byKey[key] = key, obj
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			switch {
			case d.Recv != nil:
				judge(d.Name, dir+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d)
			case d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main":
				p.roots = append(p.roots, d)
			default:
				judge(d.Name, dir+"."+d.Name.Name, d)
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				p.roots = append(p.roots, d)
				continue
			}
			for _, s := range d.Specs {
				ts := s.(*ast.TypeSpec)
				judge(ts.Name, dir+"."+ts.Name.Name, ts)
				ast.Inspect(ts.Type, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Field:
						tag := ""
						if n.Tag != nil {
							tag = reflect.StructTag(strings.Trim(n.Tag.Value, "`")).Get("json")
						}
						for _, id := range n.Names {
							if tag == "" || tag == "-" {
								judge(id, dir+"."+ts.Name.Name+"."+id.Name, nil)
							}
						}
					case *ast.FuncType: // parameters are not fields
						return false
					}
					return true
				})
			}
		}
	}
}

// reach returns every object reached from roots and from extra, and
// every field that reached code sets.
func (p *program) reach(roots []ast.Node, extra []types.Object) (seen, set map[types.Object]bool) {
	var (
		named []*types.Named // reached module types
		calls = map[string]bool{}
		queue []types.Object
	)
	seen, set = map[types.Object]bool{}, map[types.Object]bool{}
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj != nil && !seen[obj] {
			seen[obj] = true
			queue = append(queue, obj)
		}
	}
	// write records that e is stored to: the field it selects, and the
	// fields and arrays holding that field by value.
	write := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				v, ok := p.info.Uses[x.Sel].(*types.Var)
				if !ok || !v.IsField() {
					return
				}
				set[v.Origin()] = true
				if isPointer(p.info.TypeOf(x.X)) {
					return
				}
				e = x.X
			case *ast.IndexExpr:
				if _, arr := p.info.TypeOf(x.X).Underlying().(*types.Array); !arr {
					return
				}
				e = x.X
			default:
				return
			}
		}
	}
	scan := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				mark(p.info.Uses[n])
				if v, ok := p.info.Defs[n].(*types.Var); ok && v.Embedded() {
					mark(v)
					set[v] = true
				}
			case *ast.CompositeLit:
				st, ok := p.info.TypeOf(n).Underlying().(*types.Struct)
				if !ok || len(n.Elts) == 0 {
					break
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
					for _, e := range n.Elts {
						if f, ok := p.info.Uses[e.(*ast.KeyValueExpr).Key.(*ast.Ident)].(*types.Var); ok {
							set[f.Origin()] = true
						}
					}
					break
				}
				for i := range st.NumFields() {
					mark(st.Field(i))
					set[st.Field(i).Origin()] = true
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					write(e)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				m, ok := p.info.Uses[sel.Sel].(*types.Func)
				if !ok {
					break
				}
				recv := m.Type().(*types.Signature).Recv()
				if recv != nil && isPointer(recv.Type()) && !isPointer(p.info.TypeOf(sel.X)) {
					write(sel.X)
				}
			}
			return true
		})
	}
	// setAll counts every field of t, and of the types its fields hold,
	// as set.
	done := map[types.Type]bool{}
	var setAll func(t types.Type)
	setAll = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if !done[t] {
				done[t] = true
				setAll(t.Underlying())
			}
		case *types.Pointer:
			setAll(t.Elem())
		case *types.Slice:
			setAll(t.Elem())
		case *types.Struct:
			for i := range t.NumFields() {
				set[t.Field(i).Origin()] = true
				setAll(t.Field(i).Type())
			}
		}
	}
	for _, n := range roots {
		scan(n)
	}
	for _, obj := range extra {
		mark(obj)
		switch o := obj.(type) {
		case *types.Var:
			set[o] = true
		case *types.TypeName:
			setAll(o.Type())
		case *types.Func:
			params := o.Type().(*types.Signature).Params()
			for i := range params.Len() {
				setAll(params.At(i).Type())
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if n := p.body[obj]; n != nil {
			scan(n)
		}
		switch o := obj.(type) {
		case *types.Func:
			recv := o.Type().(*types.Signature).Recv()
			if recv == nil || !types.IsInterface(recv.Type()) || calls[o.Name()] {
				continue
			}
			calls[o.Name()] = true
			for _, n := range named {
				mark(methodNamed(n, o.Name()))
			}
		case *types.TypeName:
			n, ok := o.Type().(*types.Named)
			if !ok || p.body[o] == nil {
				continue
			}
			named = append(named, n)
			for i := range n.NumMethods() {
				if m := n.Method(i); calls[m.Name()] || implicitMethods[m.Name()] {
					mark(m)
				}
			}
		}
	}
	return seen, set
}

// methodNamed returns n's own method called name, or nil.
func methodNamed(n *types.Named, name string) types.Object {
	for i := range n.NumMethods() {
		if m := n.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

// recvName returns the type name of a method receiver: T, *T, T[P].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
