package regexphase

import (
	"encoding/binary"

	"lpp/internal/sequitur"
)

// Memo caches hierarchy construction across calls. A streaming
// detector rebuilds the hierarchy from a grammar that changes by one
// appended symbol per boundary, so most of each rebuild — the
// sub-expressions of unchanged rules, the Equivalent verdicts between
// them, the final automaton when the hierarchy is one already seen —
// repeats earlier work. Expressions are hash-consed: each distinct
// structure gets one node ID, keyed on its kind, literal or repeat
// count, and child IDs, so two structurally equal expressions share an
// ID no matter which grammar or rule produced them. Keyed on IDs, the
// memo holds:
//
//   - Equivalent verdicts between node pairs;
//   - each node's compiled DFA, once an Equivalent test or Automaton
//     needed it, and its minimized DFA once Automaton needed it.
//
// Every cached value is a pure function of its key, so a Memo's
// answers are exactly those of FromGrammar, MergeAdjacent, Equivalent
// and Minimize(Compile(·)), cold or warm. The memo is bounded: it
// charges each node its child count and each cached DFA its
// transition-table size, and when the total passes the budget given to
// NewMemo it empties itself at the start of the next call (a
// generation reset — cheaper to keep than an LRU over shared nodes,
// and a recurring hierarchy is rebuilt in one call). A Memo is not
// safe for concurrent use.
type Memo struct {
	budget int // 0: unbounded
	weight int
	resets int

	ids   map[string]int32 // structural key -> node ID
	nodes []memoNode
	equiv map[[2]int32]bool

	// rules maps grammar rule IDs to node IDs within one conversion;
	// stack holds the right-hand sides being merged (each rule's parts
	// sit above its callers'); key is the structural-key scratch.
	rules map[int]int32
	stack []int32
	key   []byte
}

type memoNode struct {
	expr Expr
	body int32 // the node itself, or the repeated body for a Repeat
	dfa  *DFA  // Compile(expr), once needed
	min  *DFA  // Minimize(dfa), once needed
}

// Node kinds in structural keys.
const (
	keyLit byte = iota
	keyConcat
	keyAlt
	keyRepeat
)

// NewMemo returns an empty memo whose cached nodes and automata are
// bounded by budget, in units of child references plus DFA transition
// slots (budget <= 0: unbounded).
func NewMemo(budget int) *Memo {
	return &Memo{
		budget: budget,
		ids:    make(map[string]int32),
		equiv:  make(map[[2]int32]bool),
		rules:  make(map[int]int32),
	}
}

// Resets returns how many times the memo emptied itself on reaching
// its budget.
func (m *Memo) Resets() int { return m.resets }

// FromGrammar is the memoized FromGrammar: the same expression,
// reusing cached sub-expressions and Equivalent verdicts.
func (m *Memo) FromGrammar(g sequitur.Grammar) Expr {
	return m.nodes[m.grammar(g)].expr
}

// Automaton returns the minimized DFA of FromGrammar(g) — what
// Minimize(Compile(FromGrammar(g))) returns — compiling only when the
// hierarchy's structure is not already cached. Callers share the
// result and must not modify it; stepping it fills its symbol index on
// first use, so it belongs to the memo's goroutine.
func (m *Memo) Automaton(g sequitur.Grammar) *DFA {
	id := m.grammar(g)
	n := &m.nodes[id]
	if n.min == nil {
		// The root's unminimized DFA is not kept: only Equivalent
		// operands are compiled for reuse.
		d := n.dfa
		if d == nil {
			d = Compile(n.expr)
		}
		n.min = Minimize(d)
		m.weight += dfaWeight(n.min)
	}
	return n.min
}

// MergeAdjacent is the memoized MergeAdjacent.
func (m *Memo) MergeAdjacent(parts []Expr) Expr {
	m.reserve()
	base := len(m.stack)
	for _, e := range parts {
		id := m.intern(e)
		m.stack = append(m.stack, id)
	}
	return m.nodes[m.merge(base)].expr
}

// reserve empties the memo when it has outgrown its budget. It runs
// only at the start of a call, so node IDs stay valid within one.
func (m *Memo) reserve() {
	if m.budget <= 0 || m.weight <= m.budget {
		return
	}
	clear(m.ids)
	clear(m.equiv)
	clear(m.nodes)
	m.nodes = m.nodes[:0]
	m.weight = 0
	m.resets++
}

// grammar converts g bottom-up, each rule exactly once, and returns
// the root node.
func (m *Memo) grammar(g sequitur.Grammar) int32 {
	m.reserve()
	clear(m.rules)
	return m.rule(g, 0)
}

func (m *Memo) rule(g sequitur.Grammar, id int) int32 {
	if n, ok := m.rules[id]; ok {
		return n
	}
	base := len(m.stack)
	for _, s := range g.Rules[id] {
		var p int32
		if s.Terminal {
			p = m.lit(s.Value)
		} else {
			p = m.rule(g, s.Value)
		}
		m.stack = append(m.stack, p)
	}
	n := m.merge(base)
	m.rules[id] = n
	return n
}

// merge is MergeAdjacent over the node IDs stack[base:]: it collapses
// runs of equivalent adjacent parts into repetitions, pops the parts,
// and returns the resulting node.
func (m *Memo) merge(base int) int32 {
	out := base
	for i := base; i < len(m.stack); i++ {
		e := m.stack[i]
		if out > base {
			if merged, ok := m.mergeTwo(m.stack[out-1], e); ok {
				m.stack[out-1] = merged
				continue
			}
		}
		m.stack[out] = e
		out++
	}
	var id int32
	if out-base == 1 {
		id = m.stack[base]
	} else {
		id = m.concat(m.stack[base:out])
	}
	m.stack = m.stack[:base]
	return id
}

// mergeTwo merges two adjacent nodes when they repeat the same body:
// X X, X+ X, X X+, and X+ X+ all become X+.
func (m *Memo) mergeTwo(a, b int32) (int32, bool) {
	base := m.nodes[a].body
	if !m.equivalent(base, m.nodes[b].body) {
		return 0, false
	}
	return m.repeat(nil, base, 1), true
}

// equivalent is the memoized Equivalent. Identical structure is the
// same language, so equal IDs need no automaton.
func (m *Memo) equivalent(a, b int32) bool {
	if a == b {
		return true
	}
	k := [2]int32{min(a, b), max(a, b)}
	if v, ok := m.equiv[k]; ok {
		return v
	}
	v := EquivalentDFA(m.compiled(a), m.compiled(b))
	m.equiv[k] = v
	m.weight++
	return v
}

// compiled returns the node's DFA, compiling it on first use.
func (m *Memo) compiled(id int32) *DFA {
	n := &m.nodes[id]
	if n.dfa == nil {
		n.dfa = Compile(n.expr)
		m.weight += dfaWeight(n.dfa)
	}
	return n.dfa
}

func dfaWeight(d *DFA) int { return d.NumStates() * (len(d.Alphabet) + 1) }

// intern returns the node of an arbitrary expression, interning its
// sub-expressions first. A newly seen structure keeps e itself as its
// canonical expression.
func (m *Memo) intern(e Expr) int32 {
	switch v := e.(type) {
	case Lit:
		return m.lit(v.Sym)
	case Repeat:
		return m.repeat(e, m.intern(v.E), v.Min)
	case Concat:
		return m.internList(e, keyConcat, v.Parts)
	case Alt:
		return m.internList(e, keyAlt, v.Choices)
	}
	panic("regexphase: unknown expression type")
}

func (m *Memo) internList(e Expr, kind byte, list []Expr) int32 {
	base := len(m.stack)
	for _, p := range list {
		id := m.intern(p)
		m.stack = append(m.stack, id)
	}
	ids := m.stack[base:]
	m.listKey(kind, ids)
	id := m.node(e, -1, len(ids))
	m.stack = m.stack[:base]
	return id
}

func (m *Memo) lit(sym int) int32 {
	m.key = binary.AppendVarint(append(m.key[:0], keyLit), int64(sym))
	return m.node(nil, -1, 0)
}

// repeat returns the node of body repeated min or more times; e is
// that expression when the caller already has it, else nil.
func (m *Memo) repeat(e Expr, body int32, min int) int32 {
	m.key = binary.AppendVarint(append(m.key[:0], keyRepeat), int64(min))
	m.key = binary.AppendVarint(m.key, int64(body))
	return m.node(e, body, 1)
}

// concat returns the Concat node of parts (an empty Concat renders as
// Concat{nil}, as MergeAdjacent builds it).
func (m *Memo) concat(parts []int32) int32 {
	m.listKey(keyConcat, parts)
	return m.node(nil, -1, len(parts))
}

func (m *Memo) listKey(kind byte, ids []int32) {
	m.key = binary.AppendUvarint(append(m.key[:0], kind), uint64(len(ids)))
	for _, id := range ids {
		m.key = binary.AppendVarint(m.key, int64(id))
	}
}

// node looks up the structure in m.key, creating it on a miss: with e
// as its expression when given, else built from the key's children
// (body is the repeated node for a Repeat, -1 otherwise). children is
// the node's weight.
func (m *Memo) node(e Expr, body int32, children int) int32 {
	if id, ok := m.ids[string(m.key)]; ok {
		return id
	}
	id := int32(len(m.nodes))
	if e == nil {
		e = m.build()
	}
	if body < 0 {
		body = id
	}
	m.nodes = append(m.nodes, memoNode{expr: e, body: body})
	m.ids[string(m.key)] = id
	m.weight += 1 + children
	return id
}

// build materializes the expression of the structural key in m.key
// (a literal, repeat or concatenation: an Alt is only ever interned
// from an existing expression) from its already-interned children.
func (m *Memo) build() Expr {
	k := m.key[1:]
	next := func() int64 {
		v, n := binary.Varint(k)
		k = k[n:]
		return v
	}
	switch m.key[0] {
	case keyLit:
		return Lit{int(next())}
	case keyRepeat:
		min := int(next())
		return Repeat{E: m.nodes[next()].expr, Min: min}
	case keyConcat:
		n, w := binary.Uvarint(k)
		k = k[w:]
		var parts []Expr
		if n > 0 {
			parts = make([]Expr, n)
			for i := range parts {
				parts[i] = m.nodes[next()].expr
			}
		}
		return Concat{parts}
	}
	panic("regexphase: bad memo key")
}
