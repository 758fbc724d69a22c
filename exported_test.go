package provirt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptExported lists the exported identifiers of internal/... that no
// non-test file references and that stay anyway, each with the reason.
// Keys are "<package dir>.<Name>" or "<package dir>.<Type>.<Member>".
var keptExported = map[string]string{
	// The MPI calls a program can be written against. The bundled
	// workloads use the nonblocking half and the collectives; the
	// conformance tests in internal/ampi use these.
	"internal/ampi.Rank.Recv":    "MPI_Recv",
	"internal/ampi.Rank.RecvMsg": "MPI_Recv with the status envelope, for wildcard receives",
	"internal/ampi.Rank.Isend":   "MPI_Isend",
	"internal/ampi.Comm.Recv":    "MPI_Recv on a sub-communicator",
	"internal/ampi.Comm.Dup":     "MPI_Comm_dup",
	// Paper §3.3: a user-defined reduction operator is a function pointer,
	// which PIEglobals must translate by code-segment offset between ranks.
	"internal/ampi.Rank.OpCreate":     "MPI_Op_create under PIEglobals (§3.3)",
	"internal/ampi.World.ApplyOpOnPE": "applies an OpCreate operator on another rank's PE (§3.3)",

	// The event engine's API. Production code schedules with At/AtCall
	// and never cancels; the engine's own tests and the churn and serve
	// tests drive these.
	"internal/sim.Engine.After":           "relative-time scheduling",
	"internal/sim.Event.Cancel":           "cancelling a scheduled event",
	"internal/sim.Dispatcher.Pending":     "queue depth, on the interface both engines implement",
	"internal/sim.Engine.Pending":         "queue depth",
	"internal/sim.ParallelEngine.Pending": "queue depth",

	// Read by tests of more than one package, so they cannot move into
	// one test file: what a test looks at to see the model's state.
	"internal/core.VarHandle.Privatized":     "Tables 1 and 3: which storage classes a method privatizes (core, ampi tests)",
	"internal/elf.Instance.GOTEntryForVar":   "where a GOT slot points after §3.3's rebase (elf, core tests)",
	"internal/machine.SharedFS.Exists":       "what FSglobals and checkpoints left on the filesystem (machine, core, ampi tests)",
	"internal/machine.SharedFS.TotalBytes":   "bytes FSglobals wrote per rank (loader, core tests)",
	"internal/mem.AddressSpace.Find":         "which mapping holds an address (mem, machine tests)",
	"internal/loader.Linker.NamespacesInUse": "the dlmopen namespace census behind PIPglobals' 12-rank limit (core tests)",
	"internal/trace.Table.NumRows":           "row count of a rendered figure (trace, harness tests)",
	"internal/ampi.FlatWorld.Dispatches":     "engine events really dispatched, which the cascade oracle and metrics tests pin",
	"internal/elf.Image.VarLookups":          "symbol-table probe count: the guard that a workload's inner loop resolves a handle once",

	// Not decided. Each is the only subject of a tier-1 test, so deleting
	// it deletes that test; ROADMAP item 8 carries them.
	"internal/harness/sweep.Default":                "a GOMAXPROCS-sized Runner; harness sizes its own",
	"internal/machine.Cluster.RetireNodes":          "membership log, retire half: the supervisor reshapes by building a new world instead",
	"internal/machine.Cluster.EpochAt":              "membership log query",
	"internal/machine.Cluster.LivePEs":              "membership log query",
	"internal/ampi.FlatWorld.ExpandStorm":           "growing a live flat world; no experiment does (ROADMAP item 1a)",
	"internal/papi.Cache.Reset":                     "reusing one cache model across measurements; harness builds a fresh one",
	"internal/sim.ParallelEngine.DomainEventsFired": "goes with ParallelEngine (ROADMAP item 2)",
	"internal/sim.ParallelEngine.Windows":           "goes with ParallelEngine (ROADMAP item 2)",
	"internal/sim.RNG.NormFloat64":                  "a distribution no sampler draws from",
	"internal/sim.RNG.Perm":                         "a permutation no sampler draws",
	"internal/trace.Recorder.Reset":                 "reusing a recorder; every run builds its own",
}

// implicitMethods are method names the standard library calls through
// its own interfaces (fmt, sort, container/heap, io, net/http,
// encoding/json, flag, errors), so no call by name need appear.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Flush": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true, "Set": true,
}

// TestExportedIdentifiersHaveNonTestCallers fails on an exported
// function, type, method or struct field of internal/... that only
// _test.go files (or nothing) refer to: "exported and tested" is not a
// use. Resolution is by name, with no type information — a package-level
// name is matched within its package and through import qualifiers, a
// method or field by its bare name anywhere — so the check can miss a
// dead member whose name another live member shares, but does not flag
// a live one.
func TestExportedIdentifiersHaveNonTestCallers(t *testing.T) {
	type decl struct {
		key  string
		pos  token.Position
		used bool
	}
	var (
		fset     = token.NewFileSet()
		pkgLevel = map[string]*decl{}   // "<dir>.<Name>"
		members  = map[string][]*decl{} // bare member name -> every type's member of that name
		declared = map[*ast.Ident]bool{}
		files    = map[string]*ast.File{} // path -> parsed file
	)
	for _, root := range []string{"internal", "cmd", "bench", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files[filepath.ToSlash(path)] = f
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Declarations: exported names in non-test files of internal/.
	for path, f := range files {
		if !strings.HasPrefix(path, "internal/") || strings.HasSuffix(path, "_test.go") {
			continue
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		add := func(id *ast.Ident, owner string) {
			declared[id] = true
			if !id.IsExported() {
				return
			}
			d := &decl{pos: fset.Position(id.Pos())}
			if owner == "" {
				d.key = dir + "." + id.Name
				pkgLevel[d.key] = d
				return
			}
			d.key = dir + "." + owner + "." + id.Name
			d.used = implicitMethods[id.Name]
			members[id.Name] = append(members[id.Name], d)
		}
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				owner := ""
				if gd.Recv != nil && len(gd.Recv.List) > 0 {
					owner = recvName(gd.Recv.List[0].Type)
				}
				add(gd.Name, owner)
			case *ast.GenDecl:
				if gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					add(ts.Name, "")
					var fields *ast.FieldList
					switch tt := ts.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, id := range fld.Names {
							add(id, ts.Name.Name)
							if fld.Tag != nil { // encoding/json reads it by reflection
								ms := members[id.Name]
								ms[len(ms)-1].used = true
							}
						}
					}
				}
			}
		}
	}

	// References from non-test files, declarations themselves excluded.
	for path, f := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // qualifier -> package dir
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			p, ok := strings.CutPrefix(p, "provirt/")
			if !ok {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		mark := func(key string) {
			if d := pkgLevel[key]; d != nil {
				d.used = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					mark(imports[x.Name] + "." + n.Sel.Name)
				}
				for _, d := range members[n.Sel.Name] {
					d.used = true
				}
			case *ast.Ident:
				if declared[n] {
					return true
				}
				// A bare name is a package-level name of this package, an
				// embedded field, or a composite literal's field key;
				// without types, count it as all three.
				mark(dir + "." + n.Name)
				for _, d := range members[n.Name] {
					d.used = true
				}
			}
			return true
		})
	}

	var dead []*decl
	for _, d := range pkgLevel {
		if !d.used {
			dead = append(dead, d)
		}
	}
	for _, ds := range members {
		for _, d := range ds {
			if !d.used {
				dead = append(dead, d)
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	seen := map[string]bool{}
	for _, d := range dead {
		seen[d.key] = true
		if keptExported[d.key] == "" {
			t.Errorf("%s: exported %s has no reference outside _test.go files: delete it, unexport it, or move it into the test that uses it", d.pos, d.key)
		}
	}
	for key := range keptExported {
		if !seen[key] {
			t.Errorf("keptExported lists %s, which is gone or has a non-test caller now: drop the entry", key)
		}
	}
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
