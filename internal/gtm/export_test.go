package gtm

// DecodeShard is decodeShard into fresh points, the form the decoder's
// tests and benchmarks call. Run, its one production caller, decodes
// into a pooled buffer instead.
func DecodeShard(data []byte) (points []float64, dims int, err error) {
	return decodeShard(nil, data)
}
