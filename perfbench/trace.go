package main

import (
	"strconv"
	"sync"
	"time"

	"netdrift/internal/obs"
)

// memSink keeps finished spans in memory; the traced run reads them
// after the measured phase instead of writing them out while it runs.
type memSink struct {
	mu    sync.Mutex
	spans []obs.SpanData
}

// Emit implements obs.Sink.
func (s *memSink) Emit(d obs.SpanData) {
	s.mu.Lock()
	s.spans = append(s.spans, d)
	s.mu.Unlock()
}

// take returns the spans recorded so far and empties the sink.
func (s *memSink) take() []obs.SpanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.spans
	s.spans = nil
	return out
}

// named returns the spans called name.
func named(spans []obs.SpanData, name string) []obs.SpanData {
	var out []obs.SpanData
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the spans' durations in seconds.
func durations(spans []obs.SpanData) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.Duration.Seconds()
	}
	return out
}

// serveLayers splits /v1/adapt handler spans into queue wait, batch
// execution and the handler's own time (decode, admission, encode): the
// handler span minus the queue wait and the duration of the serve.batch
// span that carried the request.
type serveLayers struct {
	queueWaitMS, batchMS, batchRows, handlerSelfMS []float64
}

func splitServeSpans(spans []obs.SpanData) serveLayers {
	var out serveLayers
	batches := map[string]obs.SpanData{}
	for _, s := range spans {
		if s.Name != "serve.batch" {
			continue
		}
		batches[strconv.FormatUint(s.ID, 10)] = s
		out.batchMS = append(out.batchMS, ms(s.Duration))
		if n, err := strconv.Atoi(s.Attrs.Get("rows")); err == nil {
			out.batchRows = append(out.batchRows, float64(n))
		}
	}
	for _, s := range spans {
		if s.Name != "http.adapt" || s.Attrs.Get("outcome") != "ok" {
			continue
		}
		waitUS, err := strconv.ParseFloat(s.Attrs.Get("queue_wait_us"), 64)
		if err != nil {
			continue
		}
		out.queueWaitMS = append(out.queueWaitMS, waitUS/1e3)
		if b, ok := batches[s.Attrs.Get("batch_span")]; ok {
			out.handlerSelfMS = append(out.handlerSelfMS, ms(s.Duration)-waitUS/1e3-ms(b.Duration))
		}
	}
	return out
}

// set writes the serve.* layer metrics.
func (l serveLayers) set(rep *report) {
	rep.set("serve.queue_wait_ms.p50", orZero(median(l.queueWaitMS)))
	rep.set("serve.queue_wait_ms.p99", orZero(quantile(l.queueWaitMS, 0.99)))
	rep.set("serve.batch_ms.p50", orZero(median(l.batchMS)))
	rep.set("serve.batch_rows.mean", orZero(mean(l.batchRows)))
	rep.set("serve.handler_self_ms.p50", orZero(median(l.handlerSelfMS)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// orZero maps the NaN of an empty sample to 0 (a layer never entered).
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
