package rel

// Randomized differential testing of the columnar execution path
// against the preserved row-major oracle (oracle_test.go). For every
// generated environment and relational expression, both paths must
// produce identical rows (in order), identical constraint derivations
// and identical errors; for full SELECTs, identical releases.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"privid/internal/query"
	"privid/internal/table"
)

var diffStrings = []string{"RED", "WHITE", "SILVER", "42", "3.5", " 7 ", "junk", "", "-0"}

func diffNum(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return 0
	default:
		return math.Round(rng.Float64()*2000-1000) / 4
	}
}

// diffEnv builds two instances with an identical schema (so UNION and
// JOIN are always well-typed) and randomized contents, including
// numeric-looking strings and special floats.
func diffEnv(rng *rand.Rand) Env {
	schema := table.MustSchema(
		table.Column{Name: "plate", Type: table.DString, Default: table.S("")},
		table.Column{Name: "color", Type: table.DString, Default: table.S("")},
		table.Column{Name: "speed", Type: table.DNumber, Default: table.N(0)},
	).WithImplicitCols(false, false)
	env := Env{}
	for i, name := range []string{"tA", "tB"} {
		meta := testMeta(name, fmt.Sprintf("cam%d", i))
		base := float64(meta.Begin.Unix())
		tbl := table.New(schema)
		n := rng.Intn(41)
		for r := 0; r < n; r++ {
			tbl.Append(table.Row{
				table.S(diffStrings[rng.Intn(len(diffStrings))]),
				table.S(diffStrings[rng.Intn(len(diffStrings))]),
				table.N(diffNum(rng)),
				table.N(base + float64(rng.Intn(100))*5),
			})
		}
		env[name] = &Instance{Metas: []TableMeta{meta}, Data: tbl}
	}
	return env
}

// baseCols is the column set of every generated TableRef (data columns
// plus the implicit chunk column).
func baseCols() []table.Column {
	return []table.Column{
		{Name: "plate", Type: table.DString},
		{Name: "color", Type: table.DString},
		{Name: "speed", Type: table.DNumber},
		{Name: table.ChunkColumn, Type: table.DNumber},
	}
}

func diffExpr(rng *rand.Rand, cols []table.Column, depth int) query.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(4) {
		case 0:
			return &query.NumLit{V: diffNum(rng)}
		case 1:
			return &query.StrLit{V: diffStrings[rng.Intn(len(diffStrings))]}
		default:
			return &query.ColRef{Name: cols[rng.Intn(len(cols))].Name}
		}
	}
	if rng.Intn(4) == 0 {
		arg := diffExpr(rng, cols, depth-1)
		switch rng.Intn(4) {
		case 0:
			lo := diffNum(rng)
			return &query.CallExpr{Name: "range", Args: []query.Expr{arg, &query.NumLit{V: lo}, &query.NumLit{V: lo + rng.Float64()*100}}}
		case 1:
			return &query.CallExpr{Name: "hour", Args: []query.Expr{arg}}
		case 2:
			return &query.CallExpr{Name: "day", Args: []query.Expr{arg}}
		default:
			w := rng.Float64()*100 - 10 // occasionally non-positive: error parity
			return &query.CallExpr{Name: "bin", Args: []query.Expr{arg, &query.NumLit{V: w}}}
		}
	}
	ops := []string{"+", "-", "*", "/", "=", "!=", "<", "<=", ">", ">=", "AND", "OR"}
	return &query.BinExpr{
		Op: ops[rng.Intn(len(ops))],
		L:  diffExpr(rng, cols, depth-1),
		R:  diffExpr(rng, cols, depth-1),
	}
}

func diffKey(rng *rand.Rand, typ table.DType) table.Value {
	if typ == table.DString && rng.Intn(4) != 0 {
		return table.S(diffStrings[rng.Intn(len(diffStrings))])
	}
	return table.N(diffNum(rng))
}

// diffRel generates a random relational expression and returns it with
// its (statically known) output column set.
func diffRel(rng *rand.Rand, depth int) (query.RelExpr, []table.Column) {
	if depth <= 0 {
		name := "tA"
		if rng.Intn(2) == 0 {
			name = "tB"
		}
		return &query.TableRef{Name: name}, baseCols()
	}
	switch rng.Intn(5) {
	case 0: // SELECT
		from, cols := diffRel(rng, depth-1)
		sel := &query.SelectExpr{From: from}
		if rng.Intn(2) == 0 {
			sel.Where = diffExpr(rng, cols, 2)
		}
		if rng.Intn(3) == 0 {
			sel.Limit = rng.Intn(10) + 1
		}
		if rng.Intn(2) == 0 {
			sel.Star = true
			return sel, cols
		}
		n := rng.Intn(3) + 1
		out := make([]table.Column, n)
		for i := 0; i < n; i++ {
			e := diffExpr(rng, cols, 2)
			alias := fmt.Sprintf("c%d", i)
			sel.Items = append(sel.Items, query.SelectItem{Expr: e, Alias: alias})
			out[i] = table.Column{Name: alias, Type: exprType(e, table.Schema{Cols: cols})}
		}
		return sel, out
	case 1: // GROUP BY
		from, cols := diffRel(rng, depth-1)
		nk := 1
		if rng.Intn(4) == 0 {
			nk = 2
		}
		g := &query.GroupExpr{From: from}
		perm := rng.Perm(len(cols))
		for i := 0; i < nk && i < len(cols); i++ {
			g.Keys = append(g.Keys, cols[perm[i]].Name)
		}
		if rng.Intn(2) == 0 {
			// WITH KEYS (errors out for nk>1 — parity checked).
			kt := cols[perm[0]].Type
			for i := 0; i < rng.Intn(4)+1; i++ {
				g.WithKeys = append(g.WithKeys, diffKey(rng, kt))
			}
		}
		return g, cols
	case 2: // JOIN over grouped base tables (same schema both sides)
		on := []string{"plate"}
		if rng.Intn(3) == 0 {
			on = []string{"plate", "color"}
		}
		l := &query.GroupExpr{From: &query.TableRef{Name: "tA"}, Keys: on}
		r := &query.GroupExpr{From: &query.TableRef{Name: "tB"}, Keys: on}
		j := &query.JoinExpr{Left: l, Right: r, On: on, Outer: rng.Intn(2) == 0}
		onSet := map[string]bool{}
		for _, k := range on {
			onSet[k] = true
		}
		var cols []table.Column
		for _, k := range on {
			cols = append(cols, table.Column{Name: k, Type: table.DString})
		}
		for _, c := range baseCols() {
			if !onSet[c.Name] {
				cols = append(cols, c)
			}
		}
		for _, c := range baseCols() {
			if !onSet[c.Name] {
				cols = append(cols, table.Column{Name: c.Name + "_r", Type: c.Type})
			}
		}
		return j, cols
	case 3: // UNION of schema-preserving subtrees
		l, cols := diffSchemaPreserving(rng, depth-1)
		r, _ := diffSchemaPreserving(rng, depth-1)
		return &query.UnionExpr{Left: l, Right: r}, cols
	default:
		return diffRel(rng, depth-1)
	}
}

// diffSchemaPreserving generates a subtree whose output columns are
// exactly baseCols (TableRef, SELECT *, GROUP BY) so UNION inputs line
// up.
func diffSchemaPreserving(rng *rand.Rand, depth int) (query.RelExpr, []table.Column) {
	name := "tA"
	if rng.Intn(2) == 0 {
		name = "tB"
	}
	var rel query.RelExpr = &query.TableRef{Name: name}
	cols := baseCols()
	for d := 0; d < depth; d++ {
		switch rng.Intn(3) {
		case 0:
			sel := &query.SelectExpr{From: rel, Star: true}
			if rng.Intn(2) == 0 {
				sel.Where = diffExpr(rng, cols, 2)
			}
			rel = sel
		case 1:
			rel = &query.GroupExpr{From: rel, Keys: []string{cols[rng.Intn(len(cols))].Name}}
		}
	}
	return rel, cols
}

func sameValue(a, b table.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	return a.KeyEqual(b)
}

// consEqual compares constraints with nil and empty maps/slices
// identified and NaN range bounds treated as equal (reflect.DeepEqual
// would report NaN != NaN).
func consEqual(a, b Constraints) bool {
	a, b = normCons(a), normCons(b)
	if !eqFloat(a.Delta, b.Delta) || !eqFloat(a.Size, b.Size) {
		return false
	}
	if len(a.Ranges) != len(b.Ranges) {
		return false
	}
	for k, ar := range a.Ranges {
		br, ok := b.Ranges[k]
		if !ok || !eqFloat(ar.Lo, br.Lo) || !eqFloat(ar.Hi, br.Hi) {
			return false
		}
	}
	a.Ranges, b.Ranges = nil, nil
	return reflect.DeepEqual(a, b)
}

// normCons fills nil maps/slices so the two paths' zero values align.
func normCons(c Constraints) Constraints {
	if c.Ranges == nil {
		c.Ranges = map[string]Range{}
	}
	if c.Trusted == nil {
		c.Trusted = map[string]bool{}
	}
	if c.Buckets == nil {
		c.Buckets = map[string]BucketSpec{}
	}
	if c.LiteralCols == nil {
		c.LiteralCols = map[string]string{}
	}
	if c.KeyDeltas == nil {
		c.KeyDeltas = map[string]map[string]float64{}
	}
	if c.KeyCams == nil {
		c.KeyCams = map[string]map[string][]string{}
	}
	if c.DedupKeys == nil {
		c.DedupKeys = []string{}
	}
	if c.Metas == nil {
		c.Metas = []TableMeta{}
	}
	return c
}

func compareTables(t *testing.T, seed int64, got *table.Table, want *oracleTable) {
	t.Helper()
	if len(got.Schema.Cols) != len(want.Schema.Cols) {
		t.Fatalf("seed %d: schema width %d vs %d", seed, len(got.Schema.Cols), len(want.Schema.Cols))
	}
	for i := range got.Schema.Cols {
		g, w := got.Schema.Cols[i], want.Schema.Cols[i]
		if g.Name != w.Name || g.Type != w.Type {
			t.Fatalf("seed %d: col %d: %v/%v vs %v/%v", seed, i, g.Name, g.Type, w.Name, w.Type)
		}
	}
	if got.Len() != len(want.Rows) {
		t.Fatalf("seed %d: %d rows vs %d", seed, got.Len(), len(want.Rows))
	}
	for i := 0; i < got.Len(); i++ {
		for j := range got.Schema.Cols {
			if !sameValue(got.At(i, j), want.Rows[i][j]) {
				t.Fatalf("seed %d: cell (%d,%d): %s vs %s", seed, i, j, got.At(i, j).Key(), want.Rows[i][j].Key())
			}
		}
	}
}

func TestDifferentialRelOperators(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := diffEnv(rng)
		rel, _ := diffRel(rng, rng.Intn(4)+1)

		gt, gc, gerr := execRel(rel, env)
		wt, wc, werr := oracleExecRel(rel, env)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("seed %d: error mismatch: columnar=%v oracle=%v", seed, gerr, werr)
		}
		if gerr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("seed %d: error text: %q vs %q", seed, gerr, werr)
			}
			continue
		}
		compareTables(t, seed, gt, wt)
		if !consEqual(gc, wc) {
			t.Fatalf("seed %d: constraints diverge:\ncolumnar: %+v\noracle:   %+v", seed, gc, wc)
		}
	}
}

func eqFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

func diffSelectStmt(rng *rand.Rand, from query.RelExpr, cols []table.Column) *query.SelectStmt {
	st := &query.SelectStmt{From: from}
	numeric := []query.Expr{
		&query.CallExpr{Name: "range", Args: []query.Expr{
			&query.ColRef{Name: "speed"}, &query.NumLit{V: 0}, &query.NumLit{V: 60},
		}},
		&query.ColRef{Name: "speed"}, // no range constraint: error parity
	}
	switch rng.Intn(5) {
	case 0:
		st.Agg = query.AggExpr{Fun: query.AggCount, Star: true}
	case 1:
		st.Agg = query.AggExpr{Fun: query.AggSum, Arg: numeric[rng.Intn(2)]}
	case 2:
		st.Agg = query.AggExpr{Fun: query.AggAvg, Arg: numeric[rng.Intn(2)]}
	case 3:
		st.Agg = query.AggExpr{Fun: query.AggVar, Arg: numeric[rng.Intn(2)]}
	default:
		st.Agg = query.AggExpr{Fun: query.AggArgmax, Arg: &query.ColRef{Name: "plate"}}
	}
	if st.Agg.Fun == query.AggArgmax || rng.Intn(2) == 0 {
		st.GroupBy = []string{"color"}
		n := rng.Intn(3) + 1
		for i := 0; i < n; i++ {
			st.GroupKeys = append(st.GroupKeys, diffKey(rng, table.DString))
		}
		if n > 1 && rng.Intn(3) == 0 {
			st.GroupKeys[n-1] = st.GroupKeys[0] // duplicate requested key
		}
	}
	return st
}

func TestDifferentialExecuteSelect(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		env := diffEnv(rng)
		// Keep the relation schema-preserving so speed/color/plate exist
		// for the aggregate.
		from, cols := diffSchemaPreserving(rng, rng.Intn(3))
		st := diffSelectStmt(rng, from, cols)

		got, gerr := ExecuteSelect(st, env)
		want, werr := oracleExecuteSelect(st, env)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("seed %d: error mismatch: columnar=%v oracle=%v", seed, gerr, werr)
		}
		if gerr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("seed %d: error text: %q vs %q", seed, gerr, werr)
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d releases vs %d", seed, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Desc != w.Desc || g.Fun != w.Fun || g.HasKey != w.HasKey {
				t.Fatalf("seed %d: release %d header: %+v vs %+v", seed, i, g, w)
			}
			if g.HasKey && !sameValue(g.Key, w.Key) {
				t.Fatalf("seed %d: release %d key: %s vs %s", seed, i, g.Key.Key(), w.Key.Key())
			}
			if !eqFloat(g.Raw, w.Raw) || !eqFloat(g.Sensitivity, w.Sensitivity) {
				t.Fatalf("seed %d: release %d raw/sens: (%v,%v) vs (%v,%v)", seed, i, g.Raw, g.Sensitivity, w.Raw, w.Sensitivity)
			}
			if !g.Begin.Equal(w.Begin) || !g.End.Equal(w.End) {
				t.Fatalf("seed %d: release %d window: %v-%v vs %v-%v", seed, i, g.Begin, g.End, w.Begin, w.End)
			}
			if !reflect.DeepEqual(g.Cameras, w.Cameras) {
				t.Fatalf("seed %d: release %d cameras: %v vs %v", seed, i, g.Cameras, w.Cameras)
			}
			if len(g.Scores) != len(w.Scores) {
				t.Fatalf("seed %d: release %d scores: %d vs %d", seed, i, len(g.Scores), len(w.Scores))
			}
			for s := range g.Scores {
				if !sameValue(g.Scores[s].Key, w.Scores[s].Key) || !eqFloat(g.Scores[s].Raw, w.Scores[s].Raw) {
					t.Fatalf("seed %d: release %d score %d diverges", seed, i, s)
				}
			}
		}
	}
}
