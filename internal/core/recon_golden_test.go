package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"netdrift/internal/dataset"
	"netdrift/internal/nn"
	"netdrift/internal/obs"
)

// reconDigest hashes the trained networks' parameters and running
// statistics bit for bit, followed by the hook event stream (per-epoch
// losses and the completion record).
func reconDigest(snaps []*nn.Snapshot, events []string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, s := range snaps {
		for _, p := range s.Params {
			for _, v := range p {
				put(v)
			}
		}
		for _, e := range s.Extra {
			for _, st := range e {
				for _, v := range st {
					put(v)
				}
			}
		}
	}
	for _, e := range events {
		h.Write([]byte(e))
	}
	return h.Sum64()
}

// TestReconstructorFitGolden pins every reconstructor's trained weights,
// running statistics and loss stream to digests recorded before the
// training steps requested only the gradients they read: the CGAN
// (conditional and not, default and negative anchor, sequential and
// sharded), the VAE and the VanillaAE, under both kernel bindings. The
// 100-row source ends on a 4-row batch, which the sharded path splits
// into fewer shards than configured.
func TestReconstructorFitGolden(t *testing.T) {
	initial := nn.SetVectorKernels(true)
	defer nn.SetVectorKernels(initial)
	cases := []struct {
		name       string
		model      string
		cond       bool
		anchor     float64
		shards     int
		wide       bool
		wantDigest uint64
	}{
		{"GAN/anchor/shards1", "GAN", true, 0, 1, false, 0x77bb47feea8ef34b},
		{"GAN/anchor/shards4", "GAN", true, 0, 4, false, 0x4ce1a77bd4468f74},
		{"GAN/pure/shards1", "GAN", true, -1, 1, false, 0x1224b108f04a43cb},
		{"GAN/pure/shards4", "GAN", true, -1, 4, false, 0x2b5a005567c9f6a4},
		{"NoCond/anchor/shards1", "GAN", false, 0, 1, false, 0xbb8d004c1a8a0d7e},
		{"NoCond/anchor/shards4", "GAN", false, 0, 4, false, 0x6b70f23e25b006d5},
		{"NoCond/pure/shards1", "GAN", false, -1, 1, false, 0x0ec1a7ae0e26fa5e},
		{"NoCond/pure/shards4", "GAN", false, -1, 4, false, 0x7f8d5a398ebd481e},
		{"VAE/shards1", "VAE", false, 0, 1, false, 0x48ae750cd4122c41},
		{"VAE/shards4", "VAE", false, 0, 4, false, 0x9e822947f32399e8},
		{"VanillaAE/shards1", "VanillaAE", false, 0, 1, false, 0x1eb155cfbf3fc611},
		{"VanillaAE/shards4", "VanillaAE", false, 0, 4, false, 0xaf8367e843e6af0c},
		{"GAN/wide/shards1", "GAN", true, 0, 1, true, 0xf933c9f369c482aa},
		{"GAN/wide/shards4", "GAN", true, 0, 4, true, 0x92d8a404717954ef},
		{"VAE/wide/shards1", "VAE", false, 0, 1, true, 0x192a642c445dbcd3},
		{"VAE/wide/shards4", "VAE", false, 0, 4, true, 0x60c5dfc23fffd4ab},
	}
	// The narrow source keeps every product inside one 16-lane chunk; the
	// wide one gives the dot kernels several chunks, ragged tails and a
	// variant window that is not a multiple of their row blocking.
	inv, vr, y := shardTrainData(100, 6, 3, 23)
	wInv, wVar, wY := shardTrainData(100, 40, 7, 29)
	for _, vector := range []bool{true, false} {
		nn.SetVectorKernels(vector)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("vector=%v/%s", vector, tc.name), func(t *testing.T) {
				inv, vr, y, hidden := inv, vr, y, 16
				if tc.wide {
					inv, vr, y, hidden = wInv, wVar, wY, 48
				}
				rec := &epochRecorder{}
				o := obs.New()
				o.Train = rec
				var snaps []*nn.Snapshot
				switch tc.model {
				case "GAN":
					g := NewCGAN(GANConfig{
						Epochs: 3, BatchSize: 32, Seed: 5, Hidden: hidden, NoiseDim: 4,
						Conditional: tc.cond, AnchorWeight: tc.anchor,
						Shards: tc.shards, Workers: 2, Obs: o,
					})
					if err := g.Fit(inv, vr, y, 2); err != nil {
						t.Fatal(err)
					}
					snaps = g.Snapshots()
				case "VAE":
					v := NewVAE(VAEConfig{
						Epochs: 3, BatchSize: 32, Seed: 5, Hidden: hidden, LatentDim: 4,
						Shards: tc.shards, Workers: 2, Obs: o,
					})
					if err := v.Fit(inv, vr, nil, 0); err != nil {
						t.Fatal(err)
					}
					snaps = []*nn.Snapshot{nn.TakeSnapshot(v.encoder), nn.TakeSnapshot(v.decoder)}
				case "VanillaAE":
					a := NewVanillaAE(VAEConfig{
						Epochs: 3, BatchSize: 32, Seed: 5, Hidden: hidden,
						Shards: tc.shards, Workers: 2, Obs: o,
					})
					if err := a.Fit(inv, vr, nil, 0); err != nil {
						t.Fatal(err)
					}
					snaps = []*nn.Snapshot{nn.TakeSnapshot(a.net)}
				}
				if got := reconDigest(snaps, rec.events); got != tc.wantDigest {
					t.Errorf("digest %#x, want %#x", got, tc.wantDigest)
				}
			})
		}
	}
}

// TestGANAnchorWeight pins the AnchorWeight contract: 0 selects the
// default weight 1 (identical training to an explicit 1), and a negative
// weight trains and reports the pure adversarial objective — the
// generator loss is the BCE term alone, whatever the negative value.
func TestGANAnchorWeight(t *testing.T) {
	inv, vr, y := shardTrainData(100, 6, 3, 23)
	fit := func(anchor float64, shards int) (*CGAN, uint64) {
		rec := &epochRecorder{}
		o := obs.New()
		o.Train = rec
		g := NewCGAN(GANConfig{
			Epochs: 2, BatchSize: 32, Seed: 5, Hidden: 16, NoiseDim: 4,
			Conditional: true, AnchorWeight: anchor, Shards: shards, Obs: o,
		})
		if err := g.Fit(inv, vr, y, 2); err != nil {
			t.Fatal(err)
		}
		return g, reconDigest(g.Snapshots(), rec.events)
	}
	for _, shards := range []int{1, 4} {
		_, def := fit(0, shards)
		_, one := fit(1, shards)
		if def != one {
			t.Errorf("shards=%d: AnchorWeight 0 digest %#x, explicit 1 %#x", shards, def, one)
		}
		_, pure := fit(-1, shards)
		_, pure3 := fit(-3, shards)
		if pure != pure3 {
			t.Errorf("shards=%d: AnchorWeight -1 digest %#x, -3 %#x", shards, pure, pure3)
		}
		if pure == def {
			t.Errorf("shards=%d: a negative AnchorWeight trained the anchored objective", shards)
		}
	}

	// One generator step on a trained net, replayed by hand: with a
	// negative weight the reported loss is exactly the step's BCE.
	g, _ := fit(-1, 1)
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i
	}
	oneHot, err := dataset.OneHot(y, 2)
	if err != nil {
		t.Fatal(err)
	}
	nn.GatherInto(&g.scr.bInv, inv, idx)
	nn.GatherInto(&g.scr.bVar, vr, idx)
	nn.GatherInto(&g.scr.bLab, oneHot, idx)
	g.rng.Seed(42) // the generator noise and D's dropout masks draw from g.rng
	loss, err := g.genStep(nn.NewSGD(0, 0), g.gen.Params())
	if err != nil {
		t.Fatal(err)
	}
	g.rng.Seed(42)
	out := g.disc.ForwardT(g.discInputT(g.generateT(&g.scr.bInv, true)), true)
	var grad nn.Tensor
	bce, err := nn.BCEWithLogitsT(out, constTargetsInto(nil, len(idx), 1), &grad)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(loss) != math.Float64bits(bce) {
		t.Fatalf("negative AnchorWeight reported generator loss %v, want the BCE term %v", loss, bce)
	}
	// The same step with the anchor on reports more than the BCE term (a
	// zero learning rate left the weights as they were).
	g.cfg.AnchorWeight = 1
	g.rng.Seed(42)
	anchored, err := g.genStep(nn.NewSGD(0, 0), g.gen.Params())
	if err != nil {
		t.Fatal(err)
	}
	if !(anchored > bce) {
		t.Fatalf("anchored generator loss %v, want more than the BCE term %v", anchored, bce)
	}
}
