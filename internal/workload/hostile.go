// Hostile workload families: traces the paper never faced, built to
// break the detector in the ways a multi-tenant streaming deployment
// would. Three families, each deterministic from its seed and
// self-describing — the generator emits its ground-truth phase
// boundaries alongside the trace, so a harness can score detection
// precision/recall instead of eyeballing:
//
//	interleaved  two known programs time-sliced onto one stream with a
//	             configurable quantum and seeded slice-length jitter
//	             (the multi-tenant session a router would produce)
//	drift        a cyclic kernel whose phase period slowly stretches
//	             and shrinks, so no fixed window length stays right
//	adaptive     an input-adaptive kernel whose phase structure —
//	             region count, sweep pattern, footprint — changes
//	             mid-run on a seeded schedule
package workload

import (
	"fmt"

	"lpp/internal/stats"
	"lpp/internal/trace"
)

// HostileParams sizes one run of a hostile family. Fields that a
// family does not use are ignored; zero values select the family
// defaults, so HostileParams{Seed: 1} is always valid.
type HostileParams struct {
	// Seed drives every generator-internal choice: slice jitter,
	// drift schedule, regime switches. Same seed, same byte stream.
	Seed uint64
	// Scale multiplies the family's built-in problem size
	// (0 or 1 = default). Scale 2 roughly doubles the trace.
	Scale int

	// Interleaved only: the two tenant benchmarks (defaults fft and
	// moldyn), the nominal accesses per time slice, and the relative
	// slice-length jitter in [0, 1).
	TenantA, TenantB string
	Quantum          int
	Jitter           float64

	// Drift only: the per-cycle period multiplier. Values above 1
	// stretch each cycle, below 1 shrink it; the generator sweeps up
	// then back down so the trace ends near its starting period.
	Drift float64
}

// Truth is the ground-truth phase structure of the most recent Run of
// a hostile program: the logical times (access counts) where the true
// structure changes, and a label per segment saying what the program
// was doing between boundary i-1 and boundary i.
type Truth struct {
	Boundaries []int64
	Labels     []string
}

// HostileProgram is a Program that can also report its ground truth.
// ManualMarks returns Truth().Boundaries, so hostile programs drop
// into every harness the nine originals use.
type HostileProgram interface {
	Program
	Truth() Truth
}

// HostileSpec describes one hostile family.
type HostileSpec struct {
	Name        string
	Description string
	Params      HostileParams
	Make        func(p HostileParams) HostileProgram
}

// Hostile returns the hostile family tier.
func Hostile() []HostileSpec {
	return []HostileSpec{
		{
			Name:        "interleaved",
			Description: "two tenants time-sliced onto one stream (quantum + jitter)",
			Params:      HostileParams{Seed: 1},
			Make:        func(p HostileParams) HostileProgram { return newInterleaved(p) },
		},
		{
			Name:        "drift",
			Description: "cyclic kernel whose phase period stretches then shrinks",
			Params:      HostileParams{Seed: 1},
			Make:        func(p HostileParams) HostileProgram { return newDrift(p) },
		},
		{
			Name:        "adaptive",
			Description: "kernel whose phase structure changes mid-run",
			Params:      HostileParams{Seed: 1},
			Make:        func(p HostileParams) HostileProgram { return newAdaptive(p) },
		},
	}
}

// HostileByName looks a hostile family up by name.
func HostileByName(name string) (HostileSpec, error) {
	for _, s := range Hostile() {
		if s.Name == name {
			return s, nil
		}
	}
	return HostileSpec{}, fmt.Errorf("workload: unknown hostile family %q", name)
}

func (p HostileParams) scale() int {
	if p.Scale < 1 {
		return 1
	}
	return p.Scale
}

// --- interleaved ---------------------------------------------------

// Tenant B's address space and block IDs are offset into a range no
// real workload reaches, so the two tenants never alias.
const (
	tenantAddrOffset  = trace.Addr(1) << 44
	tenantBlockOffset = trace.BlockID(1) << 20
)

type interleaved struct {
	meter
	p     HostileParams
	truth Truth
}

func newInterleaved(p HostileParams) *interleaved {
	if p.TenantA == "" {
		p.TenantA = "fft"
	}
	if p.TenantB == "" {
		p.TenantB = "moldyn"
	}
	if p.Quantum <= 0 {
		p.Quantum = 2000
	}
	if p.Jitter < 0 || p.Jitter >= 1 {
		p.Jitter = 0.25
	}
	return &interleaved{p: p}
}

// tenantTrace records one tenant's full trace at a size small enough
// that the interleaved stream stays comparable to the nine originals.
func tenantTrace(name string, scale int, seed uint64) (*trace.Recorded, error) {
	spec, err := ByName(name)
	if err != nil {
		return nil, err
	}
	params := spec.Train
	// Shrink to roughly a quarter of the training run; the interleaved
	// stream carries two of these plus switching overhead.
	params.N /= 2
	if params.N < 8 {
		params.N = 8
	}
	if params.Steps > 6 {
		params.Steps = 6
	}
	params.N *= scale
	params.Seed = seed
	rec := trace.NewRecorder(0, 0)
	spec.Make(params).Run(rec)
	return &rec.T, nil
}

// tenantEvents is a tenant's trace in replay order, moved into the
// tenant's own address and block ranges.
func tenantEvents(t *trace.Recorded, addrOff trace.Addr, blockOff trace.BlockID) []trace.Event {
	events := t.Events()
	for i := range events {
		if events[i].Kind == trace.EventBlock {
			events[i].Block += blockOff
		} else {
			events[i].Addr += addrOff
		}
	}
	return events
}

func (w *interleaved) Run(ins trace.Instrumenter) {
	w.begin(ins)
	w.truth = Truth{}

	ta, err := tenantTrace(w.p.TenantA, w.p.scale(), w.p.Seed*2+1)
	if err != nil {
		panic(err)
	}
	tb, err := tenantTrace(w.p.TenantB, w.p.scale(), w.p.Seed*2+2)
	if err != nil {
		panic(err)
	}
	streams := [2][]trace.Event{
		tenantEvents(ta, 0, 0),
		tenantEvents(tb, tenantAddrOffset, tenantBlockOffset),
	}
	names := [2]string{w.p.TenantA, w.p.TenantB}
	pos := [2]int{}
	cur := 0
	rng := stats.NewRNG(w.p.Seed ^ 0x1A7E)

	emit := func(e trace.Event) {
		if e.Kind == trace.EventBlock {
			w.block(e.Block, e.Instrs)
		} else {
			w.load(e.Addr)
		}
	}
	for pos[0] < len(streams[0]) || pos[1] < len(streams[1]) {
		if pos[cur] >= len(streams[cur]) {
			cur = 1 - cur
			continue
		}
		// Slice length in accesses: quantum scaled by a seeded jitter
		// factor in [1-jitter, 1+jitter].
		slice := int(float64(w.p.Quantum) * (1 + w.p.Jitter*(2*rng.Float64()-1)))
		if slice < 1 {
			slice = 1
		}
		accesses := 0
		for pos[cur] < len(streams[cur]) && accesses < slice {
			e := streams[cur][pos[cur]]
			emit(e)
			pos[cur]++
			if e.Kind == trace.EventAccess {
				accesses++
			}
		}
		if pos[0] < len(streams[0]) || pos[1] < len(streams[1]) {
			// A tenant switch is a true phase boundary: the working
			// set changes completely at this instant.
			w.mark()
			w.truth.Boundaries = append(w.truth.Boundaries, w.accesses)
			w.truth.Labels = append(w.truth.Labels, names[cur])
			cur = 1 - cur
		}
	}
	w.truth.Labels = append(w.truth.Labels, names[cur])
}

func (w *interleaved) Truth() Truth { return w.truth }

// --- drift ----------------------------------------------------------

type drift struct {
	meter
	p     HostileParams
	truth Truth
}

func newDrift(p HostileParams) *drift {
	if p.Drift <= 0 {
		p.Drift = 1.15
	}
	return &drift{p: p}
}

func (w *drift) Run(ins trace.Instrumenter) {
	w.begin(ins)
	w.truth = Truth{}

	var sp space
	const regions = 3
	base := 4096 * w.p.scale()
	arrs := [regions]array{}
	for r := range arrs {
		arrs[r] = sp.alloc(4*base, 8)
	}
	rng := stats.NewRNG(w.p.Seed ^ 0xD21F7)

	// Period sweeps up by Drift per cycle until it has roughly
	// tripled, then back down, so no fixed window length is ever right
	// for long. The tiny seeded wobble keeps the drift from being a
	// clean geometric series a curve fitter could lock onto.
	period := float64(base)
	factor := w.p.Drift
	cycles := 16 * w.p.scale()
	for c := 0; c < cycles; c++ {
		// Outer time-loop header every fourth cycle: a rare block
		// (freq = cycles/4) the offline marker selector can anchor on
		// even when its frequency cutoff rejects the per-sweep
		// headers.
		if c%4 == 0 {
			w.block(5, 4)
		}
		for r := 0; r < regions; r++ {
			n := int(period * (1 + 0.02*(2*rng.Float64()-1)))
			if n < 64 {
				n = 64
			}
			// One header block per sweep (the marker candidate, as in
			// the real kernels' substep headers) plus a frequent
			// inner-loop block.
			w.block(trace.BlockID(10+r), 4)
			for i := 0; i < n; i++ {
				if i%32 == 0 && i > 0 {
					w.block(trace.BlockID(100+r), 4)
				}
				w.load(arrs[r].at(i % (4 * base)))
			}
			w.mark()
			w.truth.Boundaries = append(w.truth.Boundaries, w.accesses)
			w.truth.Labels = append(w.truth.Labels, fmt.Sprintf("sweep-r%d-c%d", r, c))
		}
		period *= factor
		if period > 3*float64(base) || period < float64(base)/3 {
			factor = 1 / factor
		}
	}
	// Close the final segment label (segment after the last boundary
	// is empty; drop the trailing boundary at end-of-trace).
	if n := len(w.truth.Boundaries); n > 0 && w.truth.Boundaries[n-1] == w.accesses {
		w.truth.Boundaries = w.truth.Boundaries[:n-1]
		w.marks = w.marks[:len(w.marks)-1]
	}
}

func (w *drift) Truth() Truth { return w.truth }

// --- adaptive -------------------------------------------------------

type adaptive struct {
	meter
	p     HostileParams
	truth Truth
}

func newAdaptive(p HostileParams) *adaptive {
	return &adaptive{p: p}
}

// regime is one phase structure the adaptive kernel can be in.
type regime struct {
	name    string
	regions int // arrays touched per cycle
	stride  int // elements skipped per access
	sweep   int // accesses per region sweep
}

func (w *adaptive) Run(ins trace.Instrumenter) {
	w.begin(ins)
	w.truth = Truth{}

	base := 4096 * w.p.scale()
	var sp space
	// Enough arrays for the widest regime; regimes use prefixes.
	const maxRegions = 5
	arrs := [maxRegions]array{}
	for r := range arrs {
		arrs[r] = sp.alloc(4*base, 8)
	}
	regimes := []regime{
		{name: "dense2", regions: 2, stride: 1, sweep: 2 * base},
		{name: "strided5", regions: 5, stride: 7, sweep: base},
		{name: "hot1", regions: 1, stride: 1, sweep: 4 * base},
	}
	rng := stats.NewRNG(w.p.Seed ^ 0xADA9)

	// The "input" decides the regime schedule: which structures appear,
	// in what order, and how many cycles each runs before the program
	// adapts. All of it comes from the seed.
	order := rng.Intn(len(regimes))
	segments := 3 + rng.Intn(2)
	for s := 0; s < segments; s++ {
		rg := regimes[(order+s)%len(regimes)]
		// Regime-entry header, executed once per segment: the rare
		// block offline marker selection anchors on regardless of its
		// frequency cutoff.
		w.block(trace.BlockID(1+s), 5)
		cycles := 3 + rng.Intn(3)
		for c := 0; c < cycles; c++ {
			for r := 0; r < rg.regions; r++ {
				// Header block once per sweep (marker candidate),
				// inner-loop block every 32 accesses.
				w.block(trace.BlockID(20+10*s+r), 5)
				idx := 0
				for i := 0; i < rg.sweep; i++ {
					if i%32 == 0 && i > 0 {
						w.block(trace.BlockID(200+10*s+r), 5)
					}
					w.load(arrs[r].at(idx))
					idx = (idx + rg.stride) % (4 * base)
				}
				w.mark()
				w.truth.Boundaries = append(w.truth.Boundaries, w.accesses)
				w.truth.Labels = append(w.truth.Labels, fmt.Sprintf("%s-c%d-r%d", rg.name, c, r))
			}
		}
	}
	if n := len(w.truth.Boundaries); n > 0 && w.truth.Boundaries[n-1] == w.accesses {
		w.truth.Boundaries = w.truth.Boundaries[:n-1]
		w.marks = w.marks[:len(w.marks)-1]
	}
}

func (w *adaptive) Truth() Truth { return w.truth }
