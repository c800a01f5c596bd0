package coll

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// Each collective algorithm is written once, here, as a schedule: a pure
// function of (rank, size, root) returning one rank's ordered steps, with
// absolute peer ranks. Run below executes schedules on the caller's
// goroutine; the triggered executor (triggered.go) arms them as triggered
// puts.

// Step is one hop of a schedule: send the value to To, then receive
// From's message into it (-1: no such half). The send in phase k from r
// to p meets the receive in phase k at p from r. A receive is folded in
// with the operation's combiner unless Replace is set.
type Step struct {
	Phase    int
	To, From int
	Replace  bool
}

// Dissemination is the barrier: ⌈log₂n⌉ rounds; in round k each rank
// sends to rank+2^k and receives from rank−2^k.
func Dissemination(rank, size, _ int) []Step {
	s := make([]Step, 0, bits.Len(uint(size)))
	for k, d := 0, 1; d < size; k, d = k+1, d*2 {
		s = append(s, Step{Phase: k, To: (rank + d) % size, From: (rank - d + size) % size})
	}
	return s
}

// BinomialBcast is the binomial-tree broadcast. In root-relative rank v
// the parent is v with its lowest set bit cleared: receive from it in that
// bit's phase, then send to v+2^i for every lower bit i, largest subtree
// first.
func BinomialBcast(rank, size, root int) []Step {
	v := (rank - root + size) % size
	abs := func(v int) int { return (v + root) % size }
	low := bits.Len(uint(size - 1)) // the root hangs above the top bit
	s := make([]Step, 0, low+1)
	if v != 0 {
		low = bits.TrailingZeros(uint(v))
		s = append(s, Step{Phase: low, To: -1, From: abs(v &^ (1 << low)), Replace: true})
	}
	for i := low - 1; i >= 0; i-- {
		if c := v + 1<<i; c < size {
			s = append(s, Step{Phase: i, To: abs(c), From: -1})
		}
	}
	return s
}

// BinomialReduce is the binomial-tree reduction: the broadcast run
// backwards, folding each child's partial in (smallest subtree first)
// before sending to the parent.
func BinomialReduce(rank, size, root int) []Step {
	s := BinomialBcast(rank, size, root)
	slices.Reverse(s)
	for i, st := range s {
		s[i] = Step{Phase: st.Phase, To: st.From, From: st.To}
	}
	return s
}

// RecursiveDoubling is the allreduce: ranks below the largest power of
// two p exchange with rank^2^(k-1) in phases 1..log₂p. The size−p ranks
// above fold in to rank−p in phase 0 and receive the result in the last
// phase, log₂p+1.
func RecursiveDoubling(rank, size, _ int) []Step {
	last := bits.Len(uint(size))
	pow2 := 1 << (last - 1)
	if rank >= pow2 {
		return []Step{{Phase: 0, To: rank - pow2, From: -1}, {Phase: last, To: -1, From: rank - pow2, Replace: true}}
	}
	s := make([]Step, 0, last+1)
	fold := rank < size-pow2
	if fold {
		s = append(s, Step{Phase: 0, To: -1, From: rank + pow2})
	}
	for k, d := 1, 1; d < pow2; k, d = k+1, d*2 {
		s = append(s, Step{Phase: k, To: rank ^ d, From: rank ^ d})
	}
	if fold {
		s = append(s, Step{Phase: last, To: rank + pow2, From: -1})
	}
	return s
}

// sends counts the sends in steps.
func sends(steps []Step) int {
	n := 0
	for _, s := range steps {
		if s.To >= 0 {
			n++
		}
	}
	return n
}

// Link carries one operation's messages for Run: match bits and staging
// slots for Group, reserved tags for mpi.Comm.
type Link interface {
	Send(to, phase int, data []byte) error
	Recv(from, phase int, data []byte) error
}

// Run is the host executor: it performs steps over l in order. data is
// the operation's value; a receive overwrites it, unless fold is set and
// the step is not Replace — then the message lands in scratch and fold
// combines it into data.
func Run(l Link, steps []Step, data, scratch []byte, fold func()) error {
	for _, s := range steps {
		if s.To >= 0 {
			if err := l.Send(s.To, s.Phase, data); err != nil {
				return err
			}
		}
		switch {
		case s.From < 0:
		case fold == nil || s.Replace:
			if err := l.Recv(s.From, s.Phase, data); err != nil {
				return err
			}
		default:
			if err := l.Recv(s.From, s.Phase, scratch); err != nil {
				return err
			}
			fold()
		}
	}
	return nil
}

// VecScratch is RunVec's working memory: the encoded vector with its
// receive staging, and a decode vector. Keep one per group or
// communicator; the zero value is ready and grows once, to the largest
// vector seen, so later reductions allocate nothing.
type VecScratch struct {
	buf []byte
	tmp []float64
}

// RunVec runs steps on a float64 vector, folding receives in with op. s
// holds the encode and decode buffers between calls.
func RunVec(l Link, steps []Step, vec []float64, op Op, s *VecScratch) error {
	if len(s.tmp) < len(vec) {
		s.buf = make([]byte, 16*len(vec))
		s.tmp = make([]float64, len(vec))
	}
	buf, tmp := s.buf[:16*len(vec)], s.tmp[:len(vec)]
	data, in := EncodeF64(vec, buf), buf[8*len(vec):]
	err := Run(l, steps, data, in, func() {
		DecodeF64(in, tmp)
		op(vec, tmp)
		EncodeF64(vec, data)
	})
	DecodeF64(data, vec)
	return err
}

// Op combines two float64 vectors elementwise into dst.
type Op func(dst, src []float64)

// Built-in reduction operators.
var (
	Sum Op = func(dst, src []float64) {
		for i := range dst {
			dst[i] += src[i]
		}
	}
	Max Op = func(dst, src []float64) {
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}
	Min Op = func(dst, src []float64) {
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	}
)

// EncodeF64 writes v little-endian into buf and returns the written
// prefix; buf must hold 8·len(v) bytes.
func EncodeF64(v []float64, buf []byte) []byte {
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
	}
	return buf[:8*len(v)]
}

// DecodeF64 reads len(v) little-endian float64s from buf into v.
func DecodeF64(buf []byte, v []float64) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
}
