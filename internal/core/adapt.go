package core

import (
	"fmt"
	"math/rand"

	"netdrift/internal/nn"
	"netdrift/internal/splitmix"
)

// This file is the adaptation serving hot path. TransformTarget is the
// offline, allocating API; Adapt/AdaptBatch run the same alignment over
// caller-owned scratch and the inference-only forward kernels so a
// steady-state micro-batch performs no allocations and many workers can
// share one fitted (immutable) Adapter concurrently.
//
// Determinism contract (see DESIGN.md): the generator noise for a row
// depends only on that row's seed — never on batch composition — so a
// coalesced micro-batch is bit-identical to adapting each row alone.
// Seed 0 selects the pinned prior-mode draw (the paper's M=1 inference,
// exactly what TransformTarget uses); any other seed selects a
// reproducible Gaussian draw.

// SampleSeed derives the noise seed for row i of a request from the
// request-scoped seed, via a splitmix64 step so adjacent rows get
// decorrelated streams. A zero request seed stays zero for every row,
// preserving the pinned-noise default.
func SampleSeed(requestSeed int64, i int) int64 {
	if requestSeed == 0 {
		return 0
	}
	z := splitmix.Mix(uint64(requestSeed) + uint64(i+1)*splitmix.Gamma)
	if z == 0 {
		z = 1 // keep the "pinned noise" sentinel unreachable from nonzero seeds
	}
	return int64(z)
}

// AdaptScratch holds the per-worker buffers behind Adapt/AdaptBatch. One
// scratch serves one call at a time; serving workers own one each. The
// zero value is ready to use and grows to steady state on first call.
type AdaptScratch struct {
	scaled nn.Tensor // full-width scaled input rows
	inv    nn.Tensor // invariant column gather
	noise  nn.Tensor // per-row generator noise
	genIn  nn.Tensor // [inv | noise]
	out    nn.Tensor // merged full-width output
	infer  nn.InferScratch
	rng    *rand.Rand // reseeded per row; avoids a rand.New per sample

	rowBuf  [1][]float64 // single-row adapters for Adapt
	seedBuf [1]int64
}

// seeded returns the scratch RNG reseeded to seed, reproducing exactly
// the draw stream of rand.New(rand.NewSource(seed)).
func (s *AdaptScratch) seeded(seed int64) *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
		return s.rng
	}
	s.rng.Seed(seed)
	return s.rng
}

// BatchReconstructor is implemented by reconstructors that support the
// serving hot path: one inference-only generator forward per micro-batch
// over [X_inv | Z] stitched in a flat tensor, with per-row noise drawn
// from the given seeds. The returned tensor is scratch-owned and valid
// until the scratch's next use.
type BatchReconstructor interface {
	Reconstructor
	ReconstructT(inv *nn.Tensor, seeds []int64, scr *AdaptScratch) (*nn.Tensor, error)
}

var _ BatchReconstructor = (*CGAN)(nil)

// ReconstructT implements BatchReconstructor: the whole batch runs
// through one generator inference pass. Rows with seed 0 use the pinned
// prior-mode noise (fixedZ), matching Reconstruct bit for bit; other
// seeds draw a reproducible standard-normal noise row.
func (g *CGAN) ReconstructT(inv *nn.Tensor, seeds []int64, scr *AdaptScratch) (*nn.Tensor, error) {
	if !g.trained {
		return nil, ErrNotFitted
	}
	n := inv.Rows()
	if n != len(seeds) {
		return nil, fmt.Errorf("core: %d invariant rows for %d seeds", n, len(seeds))
	}
	if inv.Cols() != g.invDim {
		return nil, fmt.Errorf("core: reconstruct width %d, trained on %d", inv.Cols(), g.invDim)
	}
	noise := scr.noise.Reset(n, g.cfg.NoiseDim)
	for i, seed := range seeds {
		row := noise.Row(i)
		if seed == 0 {
			copy(row, g.fixedZ)
			continue
		}
		rng := scr.seeded(seed)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	nn.ConcatInto(&scr.genIn, inv, noise)
	return nn.Infer(g.gen, &scr.genIn, &scr.infer), nil
}

// Adapt aligns one raw target row to the source domain: the batch-size-1
// case of AdaptBatch, and the sequential baseline of the serving
// benchmark. The returned slice is scratch-owned and valid until the
// scratch's next use.
func (a *Adapter) Adapt(row []float64, seed int64, scr *AdaptScratch) ([]float64, error) {
	scr.rowBuf[0] = row
	scr.seedBuf[0] = seed
	out, err := a.AdaptBatch(scr.rowBuf[:], scr.seedBuf[:], scr)
	scr.rowBuf[0] = nil
	if err != nil {
		return nil, err
	}
	return out.Row(0), nil
}

// AdaptBatch aligns a micro-batch of raw target rows in one pass: scale,
// stitch the invariant block with per-row noise, one generator forward
// for the whole batch, merge. seeds carries one noise seed per row
// (derive them with SampleSeed). The output is bit-identical to calling
// Adapt row by row with the same seeds, and — with all-zero seeds — to
// TransformTarget. The returned tensor is scratch-owned and valid until
// the scratch's next use; a steady-state call allocates nothing when the
// reconstructor implements BatchReconstructor.
//
// AdaptBatch never mutates the Adapter, so any number of goroutines may
// serve from one fitted Adapter concurrently, each with its own scratch.
func (a *Adapter) AdaptBatch(rows [][]float64, seeds []int64, scr *AdaptScratch) (*nn.Tensor, error) {
	if !a.fitted {
		return nil, ErrNotFitted
	}
	if len(rows) == 0 {
		return scr.out.Reset(0, 0), nil
	}
	if len(rows) != len(seeds) {
		return nil, fmt.Errorf("core: %d rows for %d seeds", len(rows), len(seeds))
	}
	width := len(a.sep.invariant) + len(a.sep.variant)
	scaled := scr.scaled.Reset(len(rows), width)
	for i, row := range rows {
		if err := a.sep.scaler.TransformRowInto(scaled.Row(i), row); err != nil {
			return nil, err
		}
	}
	if a.cfg.Mode == ModeFS {
		// Invariant projection: the FS-only serving output.
		out := scr.out.Reset(len(rows), len(a.sep.invariant))
		for i := 0; i < scaled.Rows(); i++ {
			src := scaled.Row(i)
			dst := out.Row(i)
			for k, c := range a.sep.invariant {
				dst[k] = src[c]
			}
		}
		return out, nil
	}
	if a.recon == nil {
		// No variant features identified: pass-through scaling.
		return scaled, nil
	}
	inv := scr.inv.Reset(len(rows), len(a.sep.invariant))
	for i := 0; i < scaled.Rows(); i++ {
		src := scaled.Row(i)
		dst := inv.Row(i)
		for k, c := range a.sep.invariant {
			dst[k] = src[c]
		}
	}
	vrHat, err := a.reconstructForServe(inv, seeds, scr)
	if err != nil {
		return nil, err
	}
	if vrHat.Rows() != len(rows) || vrHat.Cols() != len(a.sep.variant) {
		return nil, fmt.Errorf("core: reconstructor returned %dx%d, want %dx%d",
			vrHat.Rows(), vrHat.Cols(), len(rows), len(a.sep.variant))
	}
	out := scr.out.Reset(len(rows), width)
	for i := 0; i < out.Rows(); i++ {
		dst := out.Row(i)
		invRow := inv.Row(i)
		vrRow := vrHat.Row(i)
		for k, c := range a.sep.invariant {
			dst[c] = invRow[k]
		}
		for k, c := range a.sep.variant {
			dst[c] = vrRow[k]
		}
	}
	return out, nil
}

// reconstructForServe routes through the flat batch path when the
// reconstructor supports it and falls back to the allocating Reconstruct
// (which ignores seeds — the VAE/AE ablations are deterministic) so every
// persisted bundle stays servable.
func (a *Adapter) reconstructForServe(inv *nn.Tensor, seeds []int64, scr *AdaptScratch) (*nn.Tensor, error) {
	if br, ok := a.recon.(BatchReconstructor); ok {
		return br.ReconstructT(inv, seeds, scr)
	}
	rows, err := a.recon.Reconstruct(inv.ToRows())
	if err != nil {
		return nil, err
	}
	return scr.noise.SetFromRows(rows), nil
}
