package core

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// thresholdThetas mixes exact ratios (where cm lands on θ exactly for
// some c), a tiny θ, and awkward values in between.
var thresholdThetas = []float64{1e-12, 0.05, 0.1, 1.0 / 3, 0.35, 0.5, 0.6, 2.0 / 3, 0.73, 0.8, 0.9, 0.999, 1.0}

// TestMinPassingExhaustive proves the integer θ-test exact: for every
// built-in counted measure, every pair of lengths in 0..64 and every θ in
// the grid, c ≥ minPassing(...) decides cm(c, lt, lq) ≥ θ for every
// reachable intersection size 0 ≤ c ≤ min(lt, lq).
func TestMinPassingExhaustive(t *testing.T) {
	for _, m := range labelOracleMeasures[:4] {
		cm := similarity.Counted(m.fn)
		for _, theta := range thresholdThetas {
			for lt := 0; lt <= 64; lt++ {
				for lq := 0; lq <= 64; lq++ {
					need := minPassing(cm, lt, lq, theta)
					if need < 1 || need > min(lt, lq)+1 {
						t.Fatalf("%s θ=%v lt=%d lq=%d: need %d out of [1, %d]", m.name, theta, lt, lq, need, min(lt, lq)+1)
					}
					for c := 0; c <= min(lt, lq); c++ {
						if got, want := c >= need, cm(c, lt, lq) >= theta; got != want {
							t.Fatalf("%s θ=%v lt=%d lq=%d c=%d: table says %v, measure says %v (cm=%v)",
								m.name, theta, lt, lq, c, got, want, cm(c, lt, lq))
						}
					}
				}
			}
		}
	}
}

// TestNeedRowsConcurrent builds a labeler's threshold rows from many
// goroutines at once: every caller gets the same row, whose planes decode
// to minPassing for every labeled point, and lengths past the cached
// range get nil.
func TestNeedRowsConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ts := randomTransactionsCore(r, 200, 4, 40)
	sets := [][]int{{0, 1, 2, 3, 4, 5}, {10, 11, 12}, {20, 30, 40, 50}}
	lb := newLabeler(ts, sets, 0.4, MarketBasketF(0.4), similarity.Cosine)
	rows := make([][]*needRow, 8)
	var wg sync.WaitGroup
	for g := range rows {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for lt := 0; lt < len(lb.need); lt++ {
				rows[g] = append(rows[g], lb.needRowFor(lt))
			}
		}(g)
	}
	wg.Wait()
	for lt := range lb.need {
		for g := range rows {
			if rows[g][lt] != rows[0][lt] {
				t.Fatalf("lt=%d: goroutines got different rows", lt)
			}
		}
		for pid, ci := range lb.ptCls {
			if got, want := rowNeed(rows[0][lt], lb.width, pid), minPassing(lb.cm, lt, int(lb.clsLen[ci]), lb.theta); got != want {
				t.Fatalf("lt=%d point %d: row need %d, want %d", lt, pid, got, want)
			}
		}
	}
	if lb.needRowFor(len(lb.need)) != nil {
		t.Fatal("length past the cached range got a row")
	}
}

// rowNeed decodes labeled point pid's need from a bit-sliced row.
func rowNeed(row *needRow, width, pid int) int {
	b, j := pid>>6, pid&63
	need := 0
	for p := range width {
		need |= int(row.planes[b*width+p]>>j&1) << p
	}
	return need
}

// TestLabelTableMatchesFloatPath proves the table-driven labeler
// assignment-identical to the same labeler deciding every pair through
// the counted measure's float, for every input shape: canonical
// candidates, candidates longer than the cached range, and non-canonical
// ones (unsorted, duplicated items).
func TestLabelTableMatchesFloatPath(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		ts := randomTransactionsCore(r, 120, 1+r.Intn(8), 6+r.Intn(20))
		var sets [][]int
		for lo := 0; lo < 60; lo += 6 {
			sets = append(sets, []int{lo, lo + 1 + r.Intn(5)})
		}
		cands := append([]dataset.Transaction(nil), ts[60:]...)
		for i := 0; i < 40; i++ {
			long := make(dataset.Transaction, 200+r.Intn(300))
			for j := range long {
				long[j] = dataset.Item(j)
			}
			cands = append(cands, long)
			odd := append(dataset.Transaction(nil), ts[r.Intn(60)]...)
			r.Shuffle(len(odd), func(a, b int) { odd[a], odd[b] = odd[b], odd[a] })
			if len(odd) > 0 {
				odd = append(odd, odd[0])
			}
			cands = append(cands, odd)
		}
		m := labelOracleMeasures[int(seed)%4]
		theta := thresholdThetas[int(seed)%len(thresholdThetas)]
		table := newLabeler(ts, sets, theta, MarketBasketF(theta), m.fn)
		float := newLabeler(ts, sets, theta, MarketBasketF(theta), m.fn)
		float.need = nil // every needRowFor misses: the float test decides
		got := table.run(cands, nil, 1)
		want := float.run(cands, nil, 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed=%d measure=%s θ=%v: table %v, float %v", seed, m.name, theta, got, want)
		}
	}
}

// TestRockPowTableBitIdentical proves the arena's goodness table
// bit-identical to RockGoodness for cluster sizes up to 4096, over an f
// grid that includes exponents 1+2f ≤ 1 (the denom ≤ 0 fallback), and
// that only RockGoodness itself gets a table.
func TestRockPowTableBitIdentical(t *testing.T) {
	const n = 4096
	fs := []float64{-0.75, -0.5, -0.25, 0, 1e-9, 0.1, MarketBasketF(0.8), 1.0 / 3, MarketBasketF(0.6), 0.5, 1, 2.5}
	r := rand.New(rand.NewSource(11))
	for _, f := range fs {
		pw := rockPowTable(RockGoodness, f, n)
		if len(pw) != n+1 {
			t.Fatalf("f=%v: table length %d, want %d", f, len(pw), n+1)
		}
		check := func(links, ni, nj int) {
			got, want := rockGoodnessTable(pw, links, ni, nj), RockGoodness(links, ni, nj, f)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("f=%v links=%d ni=%d nj=%d: table %v, RockGoodness %v", f, links, ni, nj, got, want)
			}
		}
		for ni := 0; ni <= 96; ni++ {
			for nj := 0; ni+nj <= 96; nj++ {
				check(0, ni, nj)
				check(1+ni*nj, ni, nj)
			}
		}
		for ni := 1; ni < n; ni++ {
			for _, nj := range []int{1, 2, 3, n - ni, r.Intn(n-ni) + 1} {
				if ni+nj <= n {
					check(1+r.Intn(1<<20), ni, nj)
				}
			}
		}
	}
	if rockPowTable(LinkCountGoodness, 0.5, 8) != nil || rockPowTable(asymGoodness, 0.5, 8) != nil {
		t.Fatal("a custom goodness function got RockGoodness's table")
	}
	wrapped := func(links, ni, nj int, f float64) float64 { return RockGoodness(links, ni, nj, f) }
	if rockPowTable(wrapped, 0.5, 8) != nil {
		t.Fatal("a closure over RockGoodness got the table")
	}
}
