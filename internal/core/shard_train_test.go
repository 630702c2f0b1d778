package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"netdrift/internal/nn"
	"netdrift/internal/obs"
)

// mallocsDuring counts heap allocations performed by f.
func mallocsDuring(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// shardTrainData builds a small synthetic source domain: invariant features
// drive the variant ones through a noisy linear map, scaled to [-1, 1].
func shardTrainData(n, invDim, varDim int, seed int64) (inv, vr [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	inv = make([][]float64, n)
	vr = make([][]float64, n)
	y = make([]int, n)
	w := make([][]float64, invDim)
	for i := range w {
		w[i] = make([]float64, varDim)
		for j := range w[i] {
			w[i][j] = rng.NormFloat64()
		}
	}
	for i := 0; i < n; i++ {
		inv[i] = make([]float64, invDim)
		vr[i] = make([]float64, varDim)
		for k := range inv[i] {
			inv[i][k] = 2*rng.Float64() - 1
		}
		for j := 0; j < varDim; j++ {
			var s float64
			for k := 0; k < invDim; k++ {
				s += inv[i][k] * w[k][j]
			}
			vr[i][j] = math.Tanh(s + 0.1*rng.NormFloat64())
		}
		y[i] = i % 2
	}
	return inv, vr, y
}

// epochRecorder captures the TrainHook event stream for cross-worker
// comparison. The stream is part of the determinism contract: identical at
// every worker count.
type epochRecorder struct {
	events []string
}

func (r *epochRecorder) Epoch(e obs.TrainEpoch) {
	r.events = append(r.events, fmt.Sprintf("epoch %s %d %x %x %v",
		e.Model, e.Epoch, math.Float64bits(e.GenLoss), math.Float64bits(e.DiscLoss), e.Adversarial))
}

func (r *epochRecorder) Done(d obs.TrainDone) {
	r.events = append(r.events, fmt.Sprintf("done %s %d %d", d.Model, d.Epochs, d.ConvergedEpoch))
}

// fitModel trains one reconstructor at the given worker count and returns
// the snapshots of its trained networks plus the hook event stream.
func fitModel(t *testing.T, model string, shards, workers int) ([]*nn.Snapshot, []string) {
	t.Helper()
	inv, vr, y := shardTrainData(96, 4, 3, 11)
	rec := &epochRecorder{}
	o := obs.New()
	o.Train = rec
	switch model {
	case "GAN", "NoCond":
		g := NewCGAN(GANConfig{
			Epochs: 3, BatchSize: 32, Seed: 7, Hidden: 16, NoiseDim: 4,
			Conditional: model == "GAN",
			Shards:      shards, Workers: workers, Obs: o,
		})
		if err := g.Fit(inv, vr, y, 2); err != nil {
			t.Fatalf("%s fit: %v", model, err)
		}
		return []*nn.Snapshot{nn.TakeSnapshot(g.gen), nn.TakeSnapshot(g.disc)}, rec.events
	case "VAE":
		v := NewVAE(VAEConfig{
			Epochs: 3, BatchSize: 32, Seed: 7, Hidden: 16, LatentDim: 4,
			Shards: shards, Workers: workers, Obs: o,
		})
		if err := v.Fit(inv, vr, nil, 0); err != nil {
			t.Fatalf("vae fit: %v", err)
		}
		return []*nn.Snapshot{nn.TakeSnapshot(v.encoder), nn.TakeSnapshot(v.decoder)}, rec.events
	case "VanillaAE":
		a := NewVanillaAE(VAEConfig{
			Epochs: 3, BatchSize: 32, Seed: 7, Hidden: 16,
			Shards: shards, Workers: workers, Obs: o,
		})
		if err := a.Fit(inv, vr, nil, 0); err != nil {
			t.Fatalf("ae fit: %v", err)
		}
		return []*nn.Snapshot{nn.TakeSnapshot(a.net)}, rec.events
	}
	t.Fatalf("unknown model %q", model)
	return nil, nil
}

func snapshotsEqual(t *testing.T, model string, workers int, want, got []*nn.Snapshot) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s workers=%d: %d nets, want %d", model, workers, len(got), len(want))
	}
	for ni := range want {
		w, g := want[ni], got[ni]
		if len(w.Params) != len(g.Params) {
			t.Fatalf("%s workers=%d net %d: param count %d, want %d", model, workers, ni, len(g.Params), len(w.Params))
		}
		for p := range w.Params {
			for i := range w.Params[p] {
				if math.Float64bits(w.Params[p][i]) != math.Float64bits(g.Params[p][i]) {
					t.Fatalf("%s workers=%d net %d param %d[%d]: %x, want %x (bitwise)",
						model, workers, ni, p, i,
						math.Float64bits(g.Params[p][i]), math.Float64bits(w.Params[p][i]))
				}
			}
		}
		if len(w.Extra) != len(g.Extra) {
			t.Fatalf("%s workers=%d net %d: extra count mismatch", model, workers, ni)
		}
		for e := range w.Extra {
			for s := range w.Extra[e] {
				for i := range w.Extra[e][s] {
					if math.Float64bits(w.Extra[e][s][i]) != math.Float64bits(g.Extra[e][s][i]) {
						t.Fatalf("%s workers=%d net %d extra %d/%d[%d]: running stats differ bitwise",
							model, workers, ni, e, s, i)
					}
				}
			}
		}
	}
}

// TestShardedTrainingWorkerInvariance is the cross-worker determinism
// matrix (DESIGN.md §5d): at a fixed shard count, the trained weights,
// batch-norm running statistics, and the obs hook event stream must be
// byte-identical for every worker count.
func TestShardedTrainingWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 4 models x 4 worker counts")
	}
	for _, model := range []string{"GAN", "NoCond", "VAE", "VanillaAE"} {
		model := model
		t.Run(model, func(t *testing.T) {
			refSnaps, refEvents := fitModel(t, model, 4, 1)
			for _, workers := range []int{2, 3, 7} {
				snaps, events := fitModel(t, model, 4, workers)
				snapshotsEqual(t, model, workers, refSnaps, snaps)
				if len(events) != len(refEvents) {
					t.Fatalf("workers=%d: %d hook events, want %d", workers, len(events), len(refEvents))
				}
				for i := range refEvents {
					if events[i] != refEvents[i] {
						t.Fatalf("workers=%d hook event %d:\n got %s\nwant %s", workers, i, events[i], refEvents[i])
					}
				}
			}
		})
	}
}

// TestShardedTrainingShardCountIsKey documents that the shard count — unlike
// the worker count — IS part of the reproducibility key: different shard
// counts are different (equally valid) trainings.
func TestShardedTrainingShardCountIsKey(t *testing.T) {
	a, _ := fitModel(t, "VanillaAE", 2, 1)
	b, _ := fitModel(t, "VanillaAE", 4, 1)
	for p := range a[0].Params {
		for i := range a[0].Params[p] {
			if math.Float64bits(a[0].Params[p][i]) != math.Float64bits(b[0].Params[p][i]) {
				return // diverged, as expected
			}
		}
	}
	t.Fatal("shards=2 and shards=4 produced identical weights; shard count should alter the training")
}

// TestShardedTrainingRace hammers the shard workers under the race detector
// (a no-op without -race). Small nets, many steps, maximum contention.
func TestShardedTrainingRace(t *testing.T) {
	inv, vr, y := shardTrainData(64, 3, 2, 5)
	g := NewCGAN(GANConfig{
		Epochs: 2, BatchSize: 16, Seed: 3, Hidden: 8, NoiseDim: 2,
		Conditional: true, Shards: 8, Workers: 8, Obs: obs.New(),
	})
	if err := g.Fit(inv, vr, y, 2); err != nil {
		t.Fatalf("gan fit: %v", err)
	}
	v := NewVAE(VAEConfig{
		Epochs: 2, BatchSize: 16, Seed: 3, Hidden: 8, LatentDim: 2,
		Shards: 8, Workers: 8, Obs: obs.New(),
	})
	if err := v.Fit(inv, vr, nil, 0); err != nil {
		t.Fatalf("vae fit: %v", err)
	}
	a := NewVanillaAE(VAEConfig{
		Epochs: 2, BatchSize: 16, Seed: 3, Hidden: 8,
		Shards: 8, Workers: 8, Obs: obs.New(),
	})
	if err := a.Fit(inv, vr, nil, 0); err != nil {
		t.Fatalf("ae fit: %v", err)
	}
}

// TestShardedEpochAllocs pins the per-epoch steady-state allocation budget of
// the sharded trainers: after the first Fit warms every arena, additional
// epochs must not allocate per batch (DESIGN.md §5c extends to §5d). Measured
// at Workers=1 — goroutine startup allocates by design on parallel runs.
func TestShardedEpochAllocs(t *testing.T) {
	checkEpochAllocs(t, "sharded gan", func(epochs int) Reconstructor {
		return NewCGAN(GANConfig{
			Epochs: epochs, BatchSize: 32, Seed: 7, Hidden: 16, NoiseDim: 4,
			Conditional: true, Shards: 4, Workers: 1,
		})
	})
}

// TestSequentialEpochAllocs is the same gate, at the same budget, on the
// sequential (Shards 1) CGAN and VAE trainers.
func TestSequentialEpochAllocs(t *testing.T) {
	checkEpochAllocs(t, "sequential gan", func(epochs int) Reconstructor {
		return NewCGAN(GANConfig{
			Epochs: epochs, BatchSize: 32, Seed: 7, Hidden: 16, NoiseDim: 4,
			Conditional: true, Shards: 1,
		})
	})
	checkEpochAllocs(t, "sequential vae", func(epochs int) Reconstructor {
		return NewVAE(VAEConfig{
			Epochs: epochs, BatchSize: 32, Seed: 7, Hidden: 16, LatentDim: 4, Shards: 1,
		})
	})
}

// checkEpochAllocs fits the reconstructor built by mk for 2 and 6 epochs and
// fails when the difference exceeds the per-epoch budget.
func checkEpochAllocs(t *testing.T, what string, mk func(epochs int) Reconstructor) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	inv, vr, y := shardTrainData(96, 4, 3, 11)
	fit := func(epochs int) {
		if err := mk(epochs).Fit(inv, vr, y, 2); err != nil {
			t.Fatalf("%s fit: %v", what, err)
		}
	}
	fit(1) // warm any lazy runtime state
	base := mallocsDuring(func() { fit(2) })
	more := mallocsDuring(func() { fit(6) })
	perEpoch := float64(int64(more)-int64(base)) / 4
	// The fixed budget covers MinibatchesInto's permutation reslice and the
	// obs epoch records; training steps themselves must be allocation free.
	t.Logf("%s: %.1f objects/epoch", what, perEpoch)
	if perEpoch > 64 {
		t.Fatalf("%s epoch allocates %.1f objects/epoch in steady state, budget 64", what, perEpoch)
	}
}
