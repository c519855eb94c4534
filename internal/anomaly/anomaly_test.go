package anomaly

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"clmids/internal/linalg"
	"clmids/internal/tensor"
)

// clusterData builds nInliers points near two tight clusters and nOutliers
// far-away points; returns the matrix (inliers first) for detector tests.
func clusterData(r *rand.Rand, nInliers, nOutliers, dim int) *tensor.Matrix {
	x := tensor.NewMatrix(nInliers+nOutliers, dim)
	for i := 0; i < nInliers; i++ {
		center := 1.0
		if i%2 == 1 {
			center = -1.0
		}
		row := x.Row(i)
		for j := range row {
			row[j] = center + r.NormFloat64()*0.05
		}
	}
	for i := nInliers; i < nInliers+nOutliers; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = r.NormFloat64() * 8
		}
	}
	return x
}

// separation asserts that outlier scores dominate inlier scores: the
// fraction of (outlier, inlier) pairs where the outlier scores strictly
// higher must exceed minAUC.
func separation(t *testing.T, name string, scores []float64, nInliers int, minAUC float64) {
	t.Helper()
	wins, total := 0, 0
	for i := nInliers; i < len(scores); i++ {
		for j := 0; j < nInliers; j++ {
			total++
			if scores[i] > scores[j] {
				wins++
			}
		}
	}
	auc := float64(wins) / float64(total)
	if auc < minAUC {
		t.Errorf("%s: AUC %.3f below %.3f", name, auc, minAUC)
	}
}

func TestPCADetector(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	x := clusterData(r, 200, 10, 8)
	train := tensor.FromSlice(200, 8, x.Data[:200*8])
	d := &PCADetector{}
	if err := d.Fit(train); err != nil {
		t.Fatal(err)
	}
	separation(t, "pca", Scores(d, x), 200, 0.95)
	if d.PCA() == nil {
		t.Error("PCA() nil after fit")
	}
}

func TestIsolationForest(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x := clusterData(r, 200, 10, 8)
	train := tensor.FromSlice(200, 8, x.Data[:200*8])
	d := &IsolationForest{Trees: 50, Seed: 3}
	if err := d.Fit(train); err != nil {
		t.Fatal(err)
	}
	scores := Scores(d, x)
	separation(t, "iforest", scores, 200, 0.95)
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("iforest score %v outside [0,1]", s)
		}
	}
}

func TestIsolationForestDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	x := clusterData(r, 100, 5, 6)
	d1 := &IsolationForest{Trees: 20, Seed: 9}
	d2 := &IsolationForest{Trees: 20, Seed: 9}
	if err := d1.Fit(x); err != nil {
		t.Fatal(err)
	}
	if err := d2.Fit(x); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows; i++ {
		if d1.Score(x.Row(i)) != d2.Score(x.Row(i)) {
			t.Fatal("same seed produced different forests")
		}
	}
}

func TestOneClassSVM(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	// OC-SVM separates the origin from the data, so a single cluster is the
	// appropriate setting.
	n, dim := 300, 8
	x := tensor.NewMatrix(n+10, dim)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = 2 + r.NormFloat64()*0.2
		}
	}
	for i := n; i < n+10; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = -4 + r.NormFloat64()*0.2
		}
	}
	train := tensor.FromSlice(n, dim, x.Data[:n*dim])
	d := &OneClassSVM{Nu: 0.05, Epochs: 300, LR: 0.02}
	if err := d.Fit(train); err != nil {
		t.Fatal(err)
	}
	separation(t, "ocsvm", Scores(d, x), n, 0.95)
}

func TestKNNDetector(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	x := clusterData(r, 200, 10, 8)
	train := tensor.FromSlice(200, 8, x.Data[:200*8])
	d := &KNNDetector{K: 5}
	if err := d.Fit(train); err != nil {
		t.Fatal(err)
	}
	separation(t, "knn", Scores(d, x), 200, 0.98)
}

func TestSVDD(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	// SVDD is translation-invariant, so the two-cluster data with
	// all-direction outliers is fine.
	x := clusterData(r, 200, 10, 8)
	train := tensor.FromSlice(200, 8, x.Data[:200*8])
	d := &SVDD{Nu: 0.05, Epochs: 300}
	if err := d.Fit(train); err != nil {
		t.Fatal(err)
	}
	separation(t, "svdd", Scores(d, x), 200, 0.9)
}

func TestDetectorFitErrors(t *testing.T) {
	empty := tensor.NewMatrix(0, 4)
	one := tensor.NewMatrix(1, 4)
	if err := (&PCADetector{}).Fit(one); err == nil {
		t.Error("PCA accepted 1 row")
	}
	if err := (&IsolationForest{}).Fit(one); err == nil {
		t.Error("iforest accepted 1 row")
	}
	if err := (&OneClassSVM{}).Fit(one); err == nil {
		t.Error("ocsvm accepted 1 row")
	}
	if err := (&SVDD{}).Fit(one); err == nil {
		t.Error("svdd accepted 1 row")
	}
	if err := (&KNNDetector{}).Fit(empty); err == nil {
		t.Error("knn accepted 0 rows")
	}
}

func TestScoreBeforeFitPanics(t *testing.T) {
	for name, d := range map[string]Detector{
		"pca":     &PCADetector{},
		"iforest": &IsolationForest{},
		"ocsvm":   &OneClassSVM{},
		"svdd":    &SVDD{},
		"knn":     &KNNDetector{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Score before Fit did not panic", name)
				}
			}()
			d.Score([]float64{1, 2, 3})
		}()
	}
}

func TestStandardizer(t *testing.T) {
	x := tensor.FromSlice(4, 2, []float64{
		0, 100,
		2, 100,
		4, 100,
		6, 100,
	})
	s := FitStandardizer(x)
	if math.Abs(s.Mean[0]-3) > 1e-12 {
		t.Errorf("mean = %v", s.Mean)
	}
	// Constant column must not divide by zero.
	out := s.Apply([]float64{3, 100})
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("standardized = %v, want zeros", out)
	}
}

func TestRetrievalScoresMaliciousNeighbors(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// Embedding space: benign cluster around +e1, malicious around +e2.
	dim := 6
	n := 100
	x := tensor.NewMatrix(n, dim)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		if i%10 == 0 { // 10% malicious
			labels[i] = true
			row[1] = 1
		} else {
			row[0] = 1
		}
		for j := range row {
			row[j] += r.NormFloat64() * 0.05
		}
	}
	ret := NewRetrieval(1)
	if err := ret.FitLabeled(x, labels); err != nil {
		t.Fatal(err)
	}
	malTest := make([]float64, dim)
	malTest[1] = 1
	benTest := make([]float64, dim)
	benTest[0] = 1
	if ret.Score(malTest) <= ret.Score(benTest) {
		t.Fatalf("malicious-like score %.3f not above benign-like %.3f",
			ret.Score(malTest), ret.Score(benTest))
	}
}

func TestRetrievalRobustToLabelNoise(t *testing.T) {
	// The scenario from §IV-D: a malicious test line whose nearest
	// neighbours are mislabeled benign. Majority vote fails; the modified
	// average-similarity-to-malicious score still ranks it above benign.
	dim := 4
	x := tensor.NewMatrix(6, dim)
	labels := make([]bool, 6)
	// Three benign-labeled but actually malicious lines near e2 (label
	// noise), one correctly labeled malicious line also near e2, two benign
	// near e1.
	for i := 0; i < 3; i++ {
		x.Row(i)[1] = 1
		x.Row(i)[2] = float64(i) * 0.01
	}
	x.Row(3)[1] = 1
	labels[3] = true
	x.Row(4)[0] = 1
	x.Row(5)[0] = 1

	ret := NewRetrieval(1)
	if err := ret.FitLabeled(x, labels); err != nil {
		t.Fatal(err)
	}
	test := []float64{0, 1, 0.005, 0}
	// Majority vote among 3 nearest (all the mislabeled ones) says benign.
	if ret.MajorityVote(test, 3) {
		t.Fatal("majority vote unexpectedly flagged the sample (test setup broken)")
	}
	// The modified score is high because the nearest malicious is close.
	benign := []float64{1, 0, 0, 0}
	if ret.Score(test) <= ret.Score(benign) {
		t.Fatalf("modified retrieval did not recover from label noise: %.3f vs %.3f",
			ret.Score(test), ret.Score(benign))
	}
}

func TestRetrievalErrors(t *testing.T) {
	x := tensor.NewMatrix(3, 2)
	if err := NewRetrieval(1).FitLabeled(x, []bool{false, false}); err == nil {
		t.Error("label length mismatch accepted")
	}
	if err := NewRetrieval(1).FitLabeled(x, []bool{false, false, false}); err == nil {
		t.Error("all-benign labels accepted")
	}
}

func TestRetrievalKLargerThanMalicious(t *testing.T) {
	x := tensor.FromSlice(3, 2, []float64{1, 0, 0, 1, 1, 1})
	ret := NewRetrieval(10)
	if err := ret.FitLabeled(x, []bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	// Must not panic; k clamps to 1 malicious row.
	_ = ret.Score([]float64{1, 0})
}

func BenchmarkPCADetectorScore(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	x := clusterData(r, 500, 0, 64)
	d := &PCADetector{}
	if err := d.Fit(x); err != nil {
		b.Fatal(err)
	}
	row := x.Row(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Score(row)
	}
}

func BenchmarkRetrievalScore(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	x := clusterData(r, 1000, 0, 64)
	labels := make([]bool, 1000)
	for i := 0; i < 50; i++ {
		labels[r.Intn(1000)] = true
	}
	labels[0] = true
	ret := NewRetrieval(1)
	if err := ret.FitLabeled(x, labels); err != nil {
		b.Fatal(err)
	}
	row := x.Row(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ret.Score(row)
	}
}

// referenceRetrievalScore is Retrieval.Score as it was before the index
// norms were hoisted: linalg.Cosine against every malicious row.
func referenceRetrievalScore(r *Retrieval, row []float64) float64 {
	k := r.K
	if k > r.malicious.Rows {
		k = r.malicious.Rows
	}
	best := make([]float64, 0, k)
	for i := 0; i < r.malicious.Rows; i++ {
		sim := linalg.Cosine(r.malicious.Row(i), row)
		if len(best) < k {
			best = append(best, sim)
			sort.Float64s(best)
			continue
		}
		if sim > best[0] {
			pos := sort.SearchFloat64s(best, sim)
			copy(best[:pos-1], best[1:pos])
			best[pos-1] = sim
		}
	}
	sum := 0.0
	for _, v := range best {
		sum += v
	}
	return sum / float64(len(best))
}

// TestRetrievalScoreMatchesCosineReference: hoisting the norms must not
// move a single bit. Random indexes carry all-zero rows, queries include
// the zero vector, and K covers 1NN, a small K and K beyond the index.
func TestRetrievalScoreMatchesCosineReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		dim, n := 1+r.Intn(48), 2+r.Intn(60)
		x := tensor.NewMatrix(n, dim)
		labels := make([]bool, n)
		labels[0] = true
		for i := 0; i < n; i++ {
			labels[i] = labels[i] || r.Intn(3) == 0
			if r.Intn(5) == 0 {
				continue // all-zero row
			}
			for j := range x.Row(i) {
				x.Row(i)[j] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
			}
		}
		queries := [][]float64{make([]float64, dim)}
		for q := 0; q < 8; q++ {
			row := make([]float64, dim)
			for j := range row {
				row[j] = r.NormFloat64()
			}
			queries = append(queries, row, x.Row(r.Intn(n)))
		}
		for _, k := range []int{1, 3, n + 5} {
			ret := NewRetrieval(k)
			if err := ret.FitLabeled(x, labels); err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				got, want := ret.Score(q), referenceRetrievalScore(ret, q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d k=%d query %d: Score %v, reference %v", trial, k, qi, got, want)
				}
			}
		}
	}
}

// TestRetrievalScoreAllocFree pins the per-query scan at zero allocations
// for small K: the top-k buffer lives on the stack.
func TestRetrievalScoreAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	x := clusterData(r, 200, 0, 48)
	labels := make([]bool, 200)
	for i := range labels {
		labels[i] = i%4 == 0
	}
	for _, k := range []int{1, 3, 8} {
		ret := NewRetrieval(k)
		if err := ret.FitLabeled(x, labels); err != nil {
			t.Fatal(err)
		}
		row := x.Row(7)
		if n := testing.AllocsPerRun(100, func() { ret.Score(row) }); n != 0 {
			t.Errorf("k=%d: Score allocates %v times per call", k, n)
		}
	}
}

func TestRetrievalScoreBatchMatchesScore(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	dim, n := 6, 80
	x := tensor.NewMatrix(n, dim)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		labels[i] = i%7 == 0
		for j := range row {
			row[j] = r.NormFloat64()
		}
	}
	ret := NewRetrieval(3)
	if err := ret.FitLabeled(x, labels); err != nil {
		t.Fatal(err)
	}
	test := tensor.NewMatrix(33, dim)
	for i := range test.Data {
		test.Data[i] = r.NormFloat64()
	}
	got := ret.ScoreBatch(test)
	if len(got) != test.Rows {
		t.Fatalf("ScoreBatch returned %d scores for %d rows", len(got), test.Rows)
	}
	for i := 0; i < test.Rows; i++ {
		if want := ret.Score(test.Row(i)); got[i] != want {
			t.Fatalf("row %d: ScoreBatch %g != Score %g", i, got[i], want)
		}
	}
}
