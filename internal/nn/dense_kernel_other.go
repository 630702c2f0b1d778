//go:build !amd64

package nn

func axpy1(v float64, w, o []float64) { axpy1Go(v, w, o) }
