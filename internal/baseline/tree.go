package baseline

import (
	"math"
	"sort"
)

// treeNode is one node of a CART regression tree.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	value     float64
	leaf      bool
}

// regTree is a depth-limited least-squares regression tree, the weak
// learner inside the gradient boosting classifier.
type regTree struct {
	root *treeNode
}

// treeParams tunes tree induction.
type treeParams struct {
	maxDepth   int
	minSamples int
}

// fitTree grows a regression tree on (X, y) with optional per-sample
// weights (nil = uniform).
func fitTree(X [][]float64, y []float64, idx []int, p treeParams) *regTree {
	if p.maxDepth == 0 {
		p.maxDepth = 3
	}
	if p.minSamples == 0 {
		p.minSamples = 8
	}
	if idx == nil {
		idx = make([]int, len(X))
		for i := range idx {
			idx[i] = i
		}
	}
	return &regTree{root: growNode(X, y, idx, p, 0)}
}

func meanAt(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func sseAt(y []float64, idx []int, mean float64) float64 {
	s := 0.0
	for _, i := range idx {
		d := y[i] - mean
		s += d * d
	}
	return s
}

func growNode(X [][]float64, y []float64, idx []int, p treeParams, depth int) *treeNode {
	mean := meanAt(y, idx)
	if depth >= p.maxDepth || len(idx) < p.minSamples {
		return &treeNode{leaf: true, value: mean}
	}
	parentSSE := sseAt(y, idx, mean)
	if parentSSE <= 1e-12 {
		return &treeNode{leaf: true, value: mean}
	}

	nFeat := len(X[0])
	bestGain := 0.0
	bestFeat := -1
	bestThr := 0.0

	vals := make([]float64, 0, len(idx))
	for f := 0; f < nFeat; f++ {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, X[i][f])
		}
		sort.Float64s(vals)
		// Candidate thresholds at a handful of quantiles keeps induction
		// fast without hurting boosting quality.
		for _, q := range []float64{0.15, 0.3, 0.5, 0.7, 0.85} {
			thr := vals[int(q*float64(len(vals)-1))]
			var sl, sr, nl, nr float64
			for _, i := range idx {
				if X[i][f] <= thr {
					sl += y[i]
					nl++
				} else {
					sr += y[i]
					nr++
				}
			}
			if nl < 2 || nr < 2 {
				continue
			}
			ml, mr := sl/nl, sr/nr
			// SSE reduction = parentSSE - (SSE_l + SSE_r); computed via
			// the decomposition n_l*(m-m_l)^2 + n_r*(m-m_r)^2.
			gain := nl*(mean-ml)*(mean-ml) + nr*(mean-mr)*(mean-mr)
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = thr
			}
		}
	}
	if bestFeat < 0 {
		return &treeNode{leaf: true, value: mean}
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &treeNode{leaf: true, value: mean}
	}
	return &treeNode{
		feature:   bestFeat,
		threshold: bestThr,
		left:      growNode(X, y, li, p, depth+1),
		right:     growNode(X, y, ri, p, depth+1),
	}
}

// predict returns the tree's output for one feature vector.
func (t *regTree) predict(x []float64) float64 {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// clampLog guards softmax inputs.
func clampLog(v float64) float64 {
	if v > 30 {
		return 30
	}
	if v < -30 {
		return -30
	}
	return v
}

// softmax computes a numerically stable softmax in place.
func softmax(z []float64) []float64 {
	maxv := math.Inf(-1)
	for _, v := range z {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	out := make([]float64, len(z))
	for i, v := range z {
		out[i] = math.Exp(clampLog(v - maxv))
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
