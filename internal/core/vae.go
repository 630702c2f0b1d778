package core

import (
	"fmt"
	"math"
	"math/rand"

	"netdrift/internal/nn"
	"netdrift/internal/obs"
)

// VAEConfig tunes the conditional VAE ablation reconstructor (Table II).
type VAEConfig struct {
	Epochs    int     // default 60
	BatchSize int     // default 64
	LR        float64 // default 1e-3
	LatentDim int     // default from data dimension
	Hidden    int     // default from data dimension
	KLWeight  float64 // default 0.05
	Seed      int64
	// Shards and Workers mirror GANConfig: Shards fixes the deterministic
	// gradient-shard count (0/1 = sequential path) and is part of the
	// reproducibility key; Workers only bounds the goroutines and never
	// changes the trained bits. Never serialized.
	Shards  int `json:"-"`
	Workers int `json:"-"`
	// Obs, when non-nil, receives per-epoch training losses. It never
	// changes the training math or the RNG stream. Never serialized.
	Obs *obs.Observer `json:"-"`
}

func (c *VAEConfig) applyDefaults(numFeatures int) {
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.LatentDim == 0 {
		c.LatentDim = noiseDim(numFeatures)
	}
	if c.Hidden == 0 {
		c.Hidden = hiddenDim(numFeatures)
	}
	if c.KLWeight == 0 {
		c.KLWeight = 0.05
	}
}

// VAE is the conditional variational autoencoder ablation: an encoder maps
// [X_inv, X_var] to a latent Gaussian; the decoder reconstructs X_var from
// [X_inv, z]. At inference z is drawn from the prior, mirroring the GAN's
// noise input. The decoder architecture matches the generator (§VI-E).
type VAE struct {
	cfg VAEConfig

	encoder        *nn.Network // -> [mu, logvar]
	decoder        *nn.Network
	invDim, varDim int
	rng            *rand.Rand
	fixedZ         []float64 // pinned inference latent (mirrors the GAN's M=1)
	trained        bool
	scr            vaeScratch
	shr            *vaeShards // sharded-training state; nil on the sequential path
}

// vaeScratch holds the per-batch buffers reused across the whole training
// run (steady-state epochs allocate nothing; see DESIGN.md §5c).
type vaeScratch struct {
	perm      []int
	batches   [][]int
	bInv      nn.Tensor
	bVar      nn.Tensor
	encIn     nn.Tensor // [bInv | bVar]
	eps       nn.Tensor
	z         nn.Tensor
	decIn     nn.Tensor // [bInv | z]
	gradRecon nn.Tensor
	gradEnc   nn.Tensor
}

var _ Reconstructor = (*VAE)(nil)

// NewVAE creates an untrained conditional VAE reconstructor.
func NewVAE(cfg VAEConfig) *VAE {
	return &VAE{cfg: cfg}
}

// Name implements Reconstructor.
func (v *VAE) Name() string { return "VAE" }

// Fit trains encoder and decoder with the reparameterization trick.
func (v *VAE) Fit(inv, vr [][]float64, _ []int, _ int) error {
	if len(inv) == 0 || len(inv) != len(vr) {
		return fmt.Errorf("core: vae fit needs matching inv/var rows (%d, %d)", len(inv), len(vr))
	}
	v.invDim = len(inv[0])
	v.varDim = len(vr[0])
	v.cfg.applyDefaults(v.invDim + v.varDim)
	v.rng = rand.New(rand.NewSource(v.cfg.Seed))

	h := v.cfg.Hidden
	ld := v.cfg.LatentDim
	v.encoder = nn.NewNetwork(
		nn.NewDense(v.invDim+v.varDim, h, v.rng),
		nn.NewReLU(),
		nn.NewDense(h, 2*ld, v.rng),
	)
	v.decoder = nn.NewNetwork(
		nn.NewSkipConcat(nn.NewNetwork(
			nn.NewDense(v.invDim+ld, h, v.rng),
			nn.NewBatchNorm(h),
			nn.NewReLU(),
			nn.NewDense(h, h, v.rng),
			nn.NewBatchNorm(h),
			nn.NewReLU(),
		)),
		nn.NewDense(h+v.invDim+ld, v.varDim, v.rng),
		nn.NewTanh(),
	)
	opt := nn.NewAdam(v.cfg.LR, 1e-6)
	params := append(v.encoder.Params(), v.decoder.Params()...)
	if v.cfg.Shards > 1 {
		v.shr = newVAEShards(v)
	}

	n := len(inv)
	bestLoss := math.Inf(1)
	convergedEpoch := 0
	scr := &v.scr
	for epoch := 0; epoch < v.cfg.Epochs; epoch++ {
		var lossSum float64
		var batches int
		scr.perm, scr.batches = nn.MinibatchesInto(n, v.cfg.BatchSize, v.rng, scr.perm, scr.batches)
		for _, idx := range scr.batches {
			nn.GatherInto(&scr.bInv, inv, idx)
			nn.GatherInto(&scr.bVar, vr, idx)
			var loss float64
			var err error
			if v.shr != nil {
				loss, err = v.stepSharded(opt, params)
			} else {
				loss, err = v.step(opt, params)
			}
			if err != nil {
				return fmt.Errorf("core: vae epoch %d: %w", epoch, err)
			}
			lossSum += loss
			batches++
		}
		if batches > 0 {
			mean := lossSum / float64(batches)
			if mean < bestLoss {
				bestLoss = mean
				convergedEpoch = epoch + 1
			}
			v.cfg.Obs.OnTrainEpoch(obs.TrainEpoch{Model: v.Name(), Epoch: epoch, GenLoss: mean})
		}
	}
	v.cfg.Obs.OnTrainDone(obs.TrainDone{Model: v.Name(), Epochs: v.cfg.Epochs, ConvergedEpoch: convergedEpoch})
	v.fixedZ = make([]float64, v.cfg.LatentDim) // prior mean
	v.trained = true
	return nil
}

// step runs one minibatch update and returns the reconstruction MSE (the
// monitored loss; the KL term is folded into the gradients only). The batch
// lives in v.scr (bInv/bVar), gathered by Fit.
func (v *VAE) step(opt nn.Optimizer, params []*nn.Param) (float64, error) {
	scr := &v.scr
	n := scr.bInv.Rows()
	ld := v.cfg.LatentDim

	encOut := v.encoder.ForwardT(nn.ConcatInto(&scr.encIn, &scr.bInv, &scr.bVar), true)
	gaussianNoiseInto(&scr.eps, n, ld, v.rng)
	z := scr.z.Reset(n, ld)
	for i := 0; i < n; i++ {
		enc := encOut.Row(i)
		mu, logvar := enc[:ld], enc[ld:]
		epsRow := scr.eps.Row(i)
		zi := z.Row(i)
		for k := 0; k < ld; k++ {
			lv := clamp(logvar[k], -8, 8)
			zi[k] = mu[k] + math.Exp(0.5*lv)*epsRow[k]
		}
	}

	recon := v.decoder.ForwardT(nn.ConcatInto(&scr.decIn, &scr.bInv, z), true)
	lossRecon, err := nn.MSET(recon, &scr.bVar, &scr.gradRecon)
	if err != nil {
		return 0, err
	}
	// Only the z columns of the decoder's input gradient are read.
	gradZ := nn.BackwardSelT(v.decoder, &scr.gradRecon, true, v.invDim, v.invDim+ld)

	// Assemble encoder-output gradient: reconstruction path through z plus
	// the KL term, normalized per latent unit like the MSE. encOut is still
	// the encoder's live output scratch — no encoder pass has run since.
	klNorm := v.cfg.KLWeight / float64(n*ld)
	gradEnc := scr.gradEnc.Reset(n, 2*ld)
	for i := 0; i < n; i++ {
		enc := encOut.Row(i)
		mu, logvar := enc[:ld], enc[ld:]
		epsRow := scr.eps.Row(i)
		dec := gradZ.Row(i)
		ge := gradEnc.Row(i)
		for k := 0; k < ld; k++ {
			lv := clamp(logvar[k], -8, 8)
			dz := dec[k]
			// dz/dmu = 1; dz/dlogvar = 0.5·exp(0.5·lv)·eps.
			ge[k] = dz + klNorm*mu[k]                      // dKL/dmu = mu
			ge[ld+k] = dz*0.5*math.Exp(0.5*lv)*epsRow[k] + //
				klNorm*0.5*(math.Exp(lv)-1) // dKL/dlogvar = (exp(lv)-1)/2
		}
	}
	v.encoder.BackwardParamsT(gradEnc)
	opt.Step(params)
	return lossRecon, nil
}

// Reconstruct decodes variant features with prior-sampled latents.
func (v *VAE) Reconstruct(inv [][]float64) ([][]float64, error) {
	if !v.trained {
		return nil, ErrNotFitted
	}
	if len(inv) == 0 {
		return nil, nil
	}
	if len(inv[0]) != v.invDim {
		return nil, fmt.Errorf("core: reconstruct width %d, trained on %d", len(inv[0]), v.invDim)
	}
	z := make([][]float64, len(inv))
	for i := range z {
		z[i] = v.fixedZ
	}
	return v.decoder.Forward(nn.ConcatRows(inv, z), false), nil
}

// VanillaAE is the deterministic autoencoder ablation: a direct regression
// from invariant to variant features with the generator's architecture but
// no noise input and no adversary (§VI-E).
type VanillaAE struct {
	cfg VAEConfig

	net            *nn.Network
	invDim, varDim int
	trained        bool

	// training scratch, reused across batches
	perm       []int
	batches    [][]int
	bInv, bVar nn.Tensor
	grad       nn.Tensor
	shr        *aeShards // sharded-training state; nil on the sequential path
}

var _ Reconstructor = (*VanillaAE)(nil)

// NewVanillaAE creates an untrained deterministic reconstructor.
func NewVanillaAE(cfg VAEConfig) *VanillaAE {
	return &VanillaAE{cfg: cfg}
}

// Name implements Reconstructor.
func (a *VanillaAE) Name() string { return "VanillaAE" }

// Fit trains the regression network with MSE.
func (a *VanillaAE) Fit(inv, vr [][]float64, _ []int, _ int) error {
	if len(inv) == 0 || len(inv) != len(vr) {
		return fmt.Errorf("core: ae fit needs matching inv/var rows (%d, %d)", len(inv), len(vr))
	}
	a.invDim = len(inv[0])
	a.varDim = len(vr[0])
	a.cfg.applyDefaults(a.invDim + a.varDim)
	rng := rand.New(rand.NewSource(a.cfg.Seed))
	h := a.cfg.Hidden
	a.net = nn.NewNetwork(
		nn.NewSkipConcat(nn.NewNetwork(
			nn.NewDense(a.invDim, h, rng),
			nn.NewBatchNorm(h),
			nn.NewReLU(),
			nn.NewDense(h, h, rng),
			nn.NewBatchNorm(h),
			nn.NewReLU(),
		)),
		nn.NewDense(h+a.invDim, a.varDim, rng),
		nn.NewTanh(),
	)
	opt := nn.NewAdam(a.cfg.LR, 1e-6)
	params := a.net.Params()
	if a.cfg.Shards > 1 {
		a.shr = newAEShards(a)
	}
	bestLoss := math.Inf(1)
	convergedEpoch := 0
	for epoch := 0; epoch < a.cfg.Epochs; epoch++ {
		var lossSum float64
		var batches int
		a.perm, a.batches = nn.MinibatchesInto(len(inv), a.cfg.BatchSize, rng, a.perm, a.batches)
		for _, idx := range a.batches {
			nn.GatherInto(&a.bInv, inv, idx)
			nn.GatherInto(&a.bVar, vr, idx)
			var loss float64
			var err error
			if a.shr != nil {
				loss, err = a.stepSharded(opt, params)
			} else {
				out := a.net.ForwardT(&a.bInv, true)
				loss, err = nn.MSET(out, &a.bVar, &a.grad)
				if err == nil {
					a.net.BackwardParamsT(&a.grad)
					opt.Step(params)
				}
			}
			if err != nil {
				return fmt.Errorf("core: ae epoch %d: %w", epoch, err)
			}
			lossSum += loss
			batches++
		}
		if batches > 0 {
			mean := lossSum / float64(batches)
			if mean < bestLoss {
				bestLoss = mean
				convergedEpoch = epoch + 1
			}
			a.cfg.Obs.OnTrainEpoch(obs.TrainEpoch{Model: a.Name(), Epoch: epoch, GenLoss: mean})
		}
	}
	a.cfg.Obs.OnTrainDone(obs.TrainDone{Model: a.Name(), Epochs: a.cfg.Epochs, ConvergedEpoch: convergedEpoch})
	a.trained = true
	return nil
}

// Reconstruct regresses variant features deterministically.
func (a *VanillaAE) Reconstruct(inv [][]float64) ([][]float64, error) {
	if !a.trained {
		return nil, ErrNotFitted
	}
	if len(inv) == 0 {
		return nil, nil
	}
	if len(inv[0]) != a.invDim {
		return nil, fmt.Errorf("core: reconstruct width %d, trained on %d", len(inv[0]), a.invDim)
	}
	return a.net.Forward(inv, false), nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
