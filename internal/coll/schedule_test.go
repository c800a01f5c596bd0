package coll

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"
)

// knowledge is what a rank's value stands for in the schedule simulation:
// the sum of the contributions folded into it (rank r contributes r+1)
// and the set of ranks it has heard from, directly or transitively.
type knowledge struct {
	sum  int
	from [3]uint64 // bitset over ranks < 192
}

func (k *knowledge) merge(o knowledge) {
	k.sum += o.sum
	for i := range k.from {
		k.from[i] |= o.from[i]
	}
}

func (k knowledge) all(n int) bool {
	for r := 0; r < n; r++ {
		if k.from[r/64]&(1<<(r%64)) == 0 {
			return false
		}
	}
	return true
}

// simulate runs every rank's steps to completion the way Run does — send,
// then receive — with sends buffered and receives blocking until their
// message exists, and returns each rank's final knowledge. It fails the
// test if a message is sent twice, a rank sends to or receives from
// itself, the ranks deadlock, or a message is never received. union makes
// every receive a merge, the view of a barrier, whose messages order
// ranks rather than carry data.
func simulate(t *testing.T, name string, n int, steps [][]Step, union bool) []knowledge {
	t.Helper()
	type msg struct{ from, to, phase int }
	box := map[msg]knowledge{}
	sent := map[msg]bool{}
	val := make([]knowledge, n)
	pc := make([]int, n)
	posted := make([]bool, n) // the current step's send is out
	for r := range val {
		val[r] = knowledge{sum: r + 1}
		val[r].from[r/64] |= 1 << (r % 64)
		for _, s := range steps[r] {
			if s.To == r || s.From == r {
				t.Fatalf("%s: rank %d step %+v talks to itself", name, r, s)
			}
		}
	}
	for progress := true; progress; {
		progress = false
		for r := 0; r < n; r++ {
			for pc[r] < len(steps[r]) {
				s := steps[r][pc[r]]
				if s.To >= 0 && !posted[r] {
					m := msg{r, s.To, s.Phase}
					if sent[m] {
						t.Fatalf("%s: rank %d sends phase %d to %d twice", name, r, s.Phase, s.To)
					}
					sent[m], box[m], posted[r] = true, val[r], true
					progress = true
				}
				if s.From >= 0 {
					m := msg{s.From, r, s.Phase}
					v, ok := box[m]
					if !ok {
						break
					}
					delete(box, m)
					if s.Replace && !union {
						val[r] = v
					} else {
						val[r].merge(v)
					}
				}
				pc[r]++
				posted[r] = false
				progress = true
			}
		}
	}
	for r := 0; r < n; r++ {
		if pc[r] < len(steps[r]) {
			t.Fatalf("%s: deadlock: rank %d waits at step %+v", name, r, steps[r][pc[r]])
		}
	}
	for m := range box {
		t.Fatalf("%s: rank %d's phase-%d message to %d is never received", name, m.from, m.phase, m.to)
	}
	return val
}

// TestSchedules checks the four algorithms as pure schedules, far beyond
// the sizes the machine tests reach: every send meets exactly one receive
// at its peer in the same phase, no rank waits on itself or deadlocks,
// and each operation leaves the right value on the right ranks.
func TestSchedules(t *testing.T) {
	for n := 1; n <= 130; n++ {
		total := n * (n + 1) / 2
		of := func(f func(rank, size, root int) []Step, root int) [][]Step {
			s := make([][]Step, n)
			for r := range s {
				s[r] = f(r, n, root)
			}
			return s
		}

		bar := of(Dissemination, 0)
		for r, k := range simulate(t, fmt.Sprintf("barrier n=%d", n), n, bar, true) {
			if !k.all(n) {
				t.Fatalf("barrier n=%d: rank %d leaves before hearing from every rank", n, r)
			}
			if got, want := sends(bar[r]), bits.Len(uint(n-1)); got != want {
				t.Fatalf("barrier n=%d: rank %d sends %d messages, want ⌈log₂n⌉ = %d", n, r, got, want)
			}
		}

		for r, k := range simulate(t, fmt.Sprintf("allreduce n=%d", n), n, of(RecursiveDoubling, 0), false) {
			if k.sum != total || !k.all(n) {
				t.Fatalf("allreduce n=%d: rank %d ends with %+v, want sum %d from all", n, r, k, total)
			}
		}

		for root := 0; root < n; root++ {
			name := fmt.Sprintf("n=%d root=%d", n, root)
			bc := of(BinomialBcast, root)
			for r, k := range simulate(t, "bcast "+name, n, bc, false) {
				recvs := len(bc[r]) - sends(bc[r])
				if want := map[bool]int{true: 0, false: 1}[r == root]; recvs != want {
					t.Fatalf("bcast %s: rank %d is reached %d times, want %d", name, r, recvs, want)
				}
				if k.sum != root+1 {
					t.Fatalf("bcast %s: rank %d ends with rank %d's value", name, r, k.sum-1)
				}
			}

			red := of(BinomialReduce, root)
			for r, k := range simulate(t, "reduce "+name, n, red, false) {
				if r == root && (k.sum != total || !k.all(n)) {
					t.Fatalf("reduce %s: root ends with %+v, want sum %d from all", name, k, total)
				}
			}
			if root == 0 {
				// Reduce then bcast as one schedule, the way mpi.Comm.Allreduce
				// and TGroup run it.
				both := make([][]Step, n)
				for r := range both {
					both[r] = append(red[r], bc[r]...)
				}
				for r, k := range simulate(t, "reduce+bcast "+name, n, both, false) {
					if k.sum != total {
						t.Fatalf("reduce+bcast %s: rank %d ends with sum %d, want %d", name, r, k.sum, total)
					}
				}
			}
		}
	}
}

// onesLink is a Link whose every receive delivers a vector of 1s.
type onesLink struct{}

func (onesLink) Send(int, int, []byte) error { return nil }

func (onesLink) Recv(_, _ int, data []byte) error {
	for i := 0; i+8 <= len(data); i += 8 {
		binary.LittleEndian.PutUint64(data[i:], math.Float64bits(1))
	}
	return nil
}

// TestRunVecScratch checks that RunVec folds through a caller-held
// VecScratch, grows it for a longer vector, and allocates nothing once it
// is large enough.
func TestRunVecScratch(t *testing.T) {
	var s VecScratch
	steps := RecursiveDoubling(0, 2, 0) // one exchange with rank 1
	for _, n := range []int{3, 8, 2} {
		vec := make([]float64, n)
		for i := range vec {
			vec[i] = float64(i)
		}
		if err := RunVec(onesLink{}, steps, vec, Sum, &s); err != nil {
			t.Fatal(err)
		}
		for i, x := range vec {
			if x != float64(i)+1 {
				t.Fatalf("n=%d: vec[%d] = %v, want %v", n, i, x, float64(i)+1)
			}
		}
	}
	vec := make([]float64, 8)
	if n := testing.AllocsPerRun(100, func() {
		if err := RunVec(onesLink{}, steps, vec, Sum, &s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("RunVec with warm scratch: %v allocs, want 0", n)
	}
}
