package obs

import (
	"os"
	"sync/atomic"
	"time"

	"netdrift/internal/splitmix"
)

// traceState is the process-wide trace-ID generator state: a splitmix64
// stream seeded once from the clock and PID, advanced atomically per mint.
// Trace IDs need to be unique and well-mixed, not secret, so no crypto
// randomness (or its syscall cost) is involved.
var traceState atomic.Uint64

func init() {
	traceState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32 | 1)
}

const hexDigits = "0123456789abcdef"

// MintTraceID returns a fresh 16-hex-character trace ID. Safe for
// concurrent use; one string allocation per call.
func MintTraceID() string {
	z := splitmix.Mix(traceState.Add(splitmix.Gamma))
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[z&0xf]
		z >>= 4
	}
	return string(b[:])
}
