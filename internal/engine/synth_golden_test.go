package engine

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"blitzsplit/internal/joingraph"
)

// TestSynthesizeGolden pins the synthesized data bit for bit: an FNV-64a
// digest over every column of every relation, in column-name order. The
// digests were recorded on the Int63n-based generator, so any change to the
// draw sequence, the rejection bound or the reduction shows up here. The
// domains cover 1 (a zero-width key), a power of two (the mask path),
// foreign-key domains of 2k–20k rows and one just under 2⁶², where Int63n's
// rejection loop fires on about one draw in forty.
func TestSynthesizeGolden(t *testing.T) {
	cases := []struct {
		name  string
		cards []float64
		sels  []float64 // chain edge (i, i+1) selectivities
		seed  int64
		want  uint64
	}{
		{"domain1", []float64{300, 200}, []float64{1}, 1, 0x6408a86988ed0e55},
		{"pow2", []float64{500, 700, 300}, []float64{1.0 / 1024, 1.0 / 64}, 2, 0x8e4629fc65e1b81c},
		{"fk", []float64{2000, 20000, 7000, 13000}, []float64{1.0 / 2000, 1.0 / 20000, 1.0 / 7001}, 3, 0x5234fdfb65a48672},
		{"near2^62", []float64{4000, 3000}, []float64{1.0 / 4.5e18}, 4, 0xc81d2062781bfdde},
	}
	for _, c := range cases {
		g := joingraph.New(len(c.cards))
		for i, s := range c.sels {
			g.MustAddEdge(i, i+1, s)
		}
		inst, err := Synthesize(c.cards, g, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, rel := range inst.Relations {
			for _, name := range rel.ColNames() {
				h.Write([]byte(name))
				for _, v := range rel.Cols[name] {
					binary.LittleEndian.PutUint64(buf[:], uint64(v))
					h.Write(buf[:])
				}
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestFillUniformMatchesInt63n: the Barrett-reduced fill must equal
// rng.Int63n(d) value for value and consume exactly the same draws, across
// domains from 1 to 2⁶³−1 — powers of two, small odd moduli, foreign-key
// sizes and moduli large enough that the rejection loop fires often.
func TestFillUniformMatchesInt63n(t *testing.T) {
	domains := []int64{1, 2, 3, 7, 1 << 10, 2000, 20000, 1_000_000_007,
		4_500_000_000_000_000_000, 1<<62 + 1, 1<<62 + 1<<61, 1<<63 - 1}
	for i, d := range domains {
		seed := int64(100 + i)
		fast := rand.New(rand.NewSource(seed))
		got := make([]int64, 5000)
		fillUniform(got, d, fast)
		ref := rand.New(rand.NewSource(seed))
		for k, v := range got {
			if want := ref.Int63n(d); v != want {
				t.Fatalf("domain %d value %d: got %d, Int63n gives %d", d, k, v, want)
			}
		}
		if fast.Int63() != ref.Int63() {
			t.Fatalf("domain %d: fill consumed a different number of draws than Int63n", d)
		}
	}
}
