package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHotSwapNoTornReads hammers the serving path from many clients while
// another goroutine hot-swaps between two bundles as fast as it can. Every
// response claims the bundle it was served from; the response rows must
// equal that exact bundle's reference output for every row — a mixture
// (some rows from bundle A, some from B, i.e. a torn read across the swap)
// fails. Run under -race in CI, where the atomic-pointer registry and the
// per-batch bundle snapshot are also checked for data races.
func TestHotSwapNoTornReads(t *testing.T) {
	a, b, rows := fixtures(t)
	probe := rows[:8]
	wantA := adaptWith(t, a, probe, 0)
	wantB := adaptWith(t, b, probe, 0)
	if sameRows(wantA, wantB) {
		t.Fatal("fixture bundles are not distinguishable; the test cannot detect torn reads")
	}

	reg := NewRegistry(nil)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 16, Workers: 2})
	defer co.Close()

	stop := make(chan struct{})
	var swaps atomic.Int64
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		cur := b
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Swap(cur)
			swaps.Add(1)
			if cur == a {
				cur = b
			} else {
				cur = a
			}
		}
	}()

	const clients = 4
	const iters = 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := co.Submit(context.Background(), probe, 0, false)
				if err != nil {
					t.Error(err)
					return
				}
				var want [][]float64
				switch res.BundleID {
				case a.ID:
					want = wantA
				case b.ID:
					want = wantB
				default:
					t.Errorf("response claims unknown bundle %q", res.BundleID)
					return
				}
				if !sameRows(res.Rows, want) {
					t.Errorf("torn read: response attributed to %q does not match that bundle's output", res.BundleID)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	if swaps.Load() < 2 {
		t.Skipf("only %d swaps happened; hammer did not overlap serving", swaps.Load())
	}
}
