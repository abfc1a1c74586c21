package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockScopeAnalyzer bounds the work done inside engine critical sections. A
// may-analysis over the CFG tracks which lock classes ("Type.field", the
// same identity lockorder uses) are possibly held at each program point in
// internal/cc, internal/wal, and internal/core; while any is held, the
// following are forbidden — each one either extends the critical section by
// an unbounded amount (I/O, blocking ops, callbacks that may re-enter) or
// puts allocator/GC work under the hottest mutexes in the engine:
//
//   - allocation: make/new, slice/map composite literals, pointer-to-composite
//     literals, and closure creation
//   - goroutine launches (the new goroutine may immediately contend on the
//     lock being held, inverting the handoff)
//   - blocking channel operations (sends and bare receives; select
//     communications are a scheduling choice and are exempt, as is
//     sync.Cond.Wait, which releases its associated mutex)
//   - time.Sleep and durability waits (WaitDurable*)
//   - device/WAL I/O: calls into package os and calls through the wal.Device
//     interface (or a concrete type satisfying it)
//   - indirect calls through function values — user callbacks whose cost and
//     locking behavior the engine cannot see
//
// The analysis is per-function: helpers that run with a caller's lock held
// (the *Locked suffix convention) are not charged with the caller's held
// set. The runtime contention gates cover that gap.
//
// Escape hatch: //next700:locked(class: reason) on the offending line or the
// function, for audited sites (e.g. a cold recovery path that snapshots
// under the partition mutex).
var LockScopeAnalyzer = &Analyzer{
	Name:         "lockscope",
	Doc:          "no allocation, blocking, I/O, or callbacks while engine mutexes are held",
	SuppressVerb: "locked",
	Run:          runLockScope,
}

var lockScopeScope = []string{"internal/cc", "internal/wal", "internal/core"}

func runLockScope(pass *Pass) error {
	prog := pass.Prog
	deviceIface := walDeviceInterface(prog)
	for _, node := range prog.Graph().Nodes {
		if !inScope(prog, node.Pkg, lockScopeScope) {
			continue
		}
		checkLockScope(pass, node, deviceIface)
	}
	return nil
}

// walDeviceInterface resolves the wal.Device interface type, if the package
// is part of the program.
func walDeviceInterface(prog *Program) *types.Interface {
	for _, pkg := range prog.Packages {
		if !strings.HasSuffix(pkg.Path, "internal/wal") {
			continue
		}
		if obj := pkg.Types.Scope().Lookup("Device"); obj != nil {
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				return iface
			}
		}
	}
	return nil
}

const heldPrefix = "held:"

func heldClasses(f Facts) []string {
	var out []string
	for k := range f {
		if strings.HasPrefix(k, heldPrefix) {
			out = append(out, strings.TrimPrefix(k, heldPrefix))
		}
	}
	sort.Strings(out)
	return out
}

func checkLockScope(pass *Pass, node *FuncNode, deviceIface *types.Interface) {
	body := node.Body()
	if body == nil {
		return
	}
	info := node.Pkg.Info
	cfg := BuildCFG(body)

	// Transfer: Lock/RLock (and the Try variants' success paths) add the
	// class, Unlock/RUnlock remove it. A deferred unlock is not a release at
	// the defer statement — the lock stays held to function exit, so a
	// defer-unlock inside a loop correctly carries the held class around the
	// back edge.
	spec := &FlowSpec{
		Transfer: func(f Facts, n ast.Node) {
			if _, ok := n.(*ast.DeferStmt); ok {
				return
			}
			inspectPoint(n, func(x ast.Node) bool {
				if _, ok := x.(*ast.DeferStmt); ok {
					return false
				}
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				kind, class := lockCall(info, call)
				if class == "" {
					return true
				}
				switch kind {
				case "Lock", "RLock", "TryLock", "TryRLock":
					f[heldPrefix+class] = true
				case "Unlock", "RUnlock":
					delete(f, heldPrefix+class)
				}
				return true
			})
		},
	}
	res := SolveForward(cfg, spec)

	res.Simulate(func(f Facts, b *Block, n ast.Node) {
		held := heldClasses(f)
		if len(held) == 0 {
			return
		}
		holding := strings.Join(held, ", ")
		report := func(pos token.Pos, what string) {
			pass.Reportf(pos, "%s while %s held; move it outside the critical section or annotate //next700:locked(%s: reason)", what, holding, held[0])
		}
		if _, ok := n.(*ast.DeferStmt); ok {
			// Deferred calls run at function exit; the defer statement itself
			// performs no work under the lock (straight-line defers are
			// open-coded since go1.14 — hotpath covers defer-in-loop).
			return
		}
		inspectPoint(n, func(x ast.Node) bool {
			switch y := x.(type) {
			case *ast.DeferStmt:
				return false
			case *ast.FuncLit:
				report(y.Pos(), "closure allocation")
			case *ast.GoStmt:
				report(y.Pos(), "goroutine launch")
			case *ast.SendStmt:
				if !b.SelectComm {
					report(y.Pos(), "blocking channel send")
				}
			case *ast.UnaryExpr:
				if y.Op == token.ARROW && !b.SelectComm {
					report(y.Pos(), "blocking channel receive")
				}
				if y.Op == token.AND {
					if _, ok := ast.Unparen(y.X).(*ast.CompositeLit); ok {
						report(y.Pos(), "pointer-to-composite allocation")
					}
				}
			case *ast.CompositeLit:
				if tv, ok := info.Types[y]; ok {
					switch tv.Type.Underlying().(type) {
					case *types.Slice:
						report(y.Pos(), "slice-literal allocation")
					case *types.Map:
						report(y.Pos(), "map-literal allocation")
					}
				}
			case *ast.CallExpr:
				checkLockedCall(pass, node, y, deviceIface, report)
			}
			return true
		})
	})
}

// checkLockedCall classifies one call made while locks are held.
func checkLockedCall(pass *Pass, node *FuncNode, call *ast.CallExpr, deviceIface *types.Interface, report func(token.Pos, string)) {
	info := node.Pkg.Info
	// Builtins: make/new allocate; the rest (len, append into existing cap,
	// ...) are not charged here.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "allocation (make)")
			case "new":
				report(call.Pos(), "allocation (new)")
			}
			return
		}
	}
	// Conversions are not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}

	fn := calleeFunc(info, call)
	if fn == nil {
		// An indirect call through a func value: a caller-supplied callback
		// (sequencer hooks, visitors) whose cost the engine cannot bound.
		// A named closure declared in this same body (writeImage, deadStream)
		// is engine code, not a callback — exempt.
		if localClosureCall(info, node, call) {
			return
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.Type != nil {
			if _, sig := tv.Type.Underlying().(*types.Signature); sig {
				report(call.Pos(), "indirect call through a function value (caller-supplied callback)")
			}
		}
		return
	}

	// Mutex operations themselves are the subject of lockorder, not here.
	if kind, _ := lockCall(info, call); kind != "" {
		return
	}

	full := fn.Origin().FullName()
	switch full {
	case "time.Sleep":
		report(call.Pos(), "time.Sleep")
		return
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "os" {
		report(call.Pos(), "os."+objOwnerName(fn)+fn.Name()+" device I/O")
		return
	}
	if strings.HasPrefix(fn.Name(), "WaitDurable") {
		report(call.Pos(), "durability wait "+fn.Name())
		return
	}
	// Device I/O: a method invoked on wal.Device (interface dispatch) or on
	// a concrete type implementing it, restricted to the interface's own
	// method set (Write/Sync).
	if deviceIface != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recvT := sig.Recv().Type()
			if hasMethod(deviceIface, fn.Name()) &&
				(types.Implements(recvT, deviceIface) || types.Implements(types.NewPointer(recvT), deviceIface)) {
				report(call.Pos(), "wal.Device."+fn.Name()+" device I/O")
			}
		}
	}
}

// localClosureCall reports whether call invokes a func value bound to a
// variable declared inside this function's own body — a named local closure.
// Parameters (including func-typed ones) are declared in the signature,
// outside the body span, so caller-supplied callbacks stay flagged.
func localClosureCall(info *types.Info, node *FuncNode, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	body := node.Body()
	return body != nil && v.Pos() >= body.Pos() && v.Pos() < body.End()
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// objOwnerName renders "Type." for methods, "" for package functions.
func objOwnerName(fn *types.Func) string {
	if named := methodRecvNamed(fn); named != nil {
		return named.Obj().Name() + "."
	}
	return ""
}
