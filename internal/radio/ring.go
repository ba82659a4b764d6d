package radio

// ring keeps the newest len(buf) samples of a stream. The smoother and the
// forecaster both sum over it oldest-first; runs hands them the retained
// samples as at most two contiguous slices, so those sums index the buffer
// directly instead of taking a modulo per element.
type ring struct {
	buf    []float64
	head   int // index the next sample is written to
	filled int
}

func newRing(n int) ring { return ring{buf: make([]float64, n)} }

// push appends v, dropping the oldest sample once the ring is full.
func (r *ring) push(v float64) {
	r.buf[r.head] = v
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	if r.filled < len(r.buf) {
		r.filled++
	}
}

// runs returns the retained samples oldest-first: older, then newer.
func (r *ring) runs() (older, newer []float64) {
	start := r.head - r.filled
	if start < 0 {
		return r.buf[start+len(r.buf):], r.buf[:r.head]
	}
	return r.buf[start:r.head], nil
}

// last returns the newest sample; the ring must not be empty.
func (r *ring) last() float64 {
	i := r.head - 1
	if i < 0 {
		i += len(r.buf)
	}
	return r.buf[i]
}

func (r *ring) reset() { r.head, r.filled = 0, 0 }

// contents returns a copy of the retained samples, oldest-first.
func (r *ring) contents() []float64 {
	older, newer := r.runs()
	out := make([]float64, 0, r.filled)
	return append(append(out, older...), newer...)
}

// load replaces the contents with vs (oldest-first), the inverse of
// contents. When vs is longer than the ring only the newest samples are
// kept.
func (r *ring) load(vs []float64) {
	r.reset()
	if over := len(vs) - len(r.buf); over > 0 {
		vs = vs[over:]
	}
	for _, v := range vs {
		r.push(v)
	}
}
