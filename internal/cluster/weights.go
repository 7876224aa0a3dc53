package cluster

import (
	"fmt"
	"math"

	"sightrisk/internal/classify"
	"sightrisk/internal/profile"
	"sightrisk/internal/similarity"
)

// PoolWeights precomputes the symmetric PS() edge-weight matrix a
// pool's learning session classifies over: entry (i,j) is the profile
// similarity of Members[i] and Members[j] under the pool-local value
// frequencies, raised to exponent (the RBF-style sharpening the engine
// applies so same-attribute neighbors dominate label propagation; 1
// keeps raw PS). attrs empty means the paper's clustering attributes.
//
// The computation is self-contained per pool — it reads the store but
// writes only its own matrix — which is what lets the engine build
// many pools' weights concurrently.
func PoolWeights(store *profile.Store, pool Pool, attrs []profile.Attribute, exponent float64) ([][]float64, error) {
	psCtx := similarity.NewPSContext(store, pool.Members, attrs)
	weights := psCtx.Matrix(store.Profiles(pool.Members))
	if len(weights) != len(pool.Members) {
		return nil, fmt.Errorf("cluster: pool %s: %d profiles for %d members (missing profiles)", pool.ID(), len(weights), len(pool.Members))
	}
	if exponent != 1 {
		for i := range weights {
			for j := range weights[i] {
				weights[i][j] = math.Pow(weights[i][j], exponent)
			}
		}
	}
	return weights, nil
}

// PoolKernel returns the pool's PoolWeights matrix as the row-twin
// kernel the engine's sessions classify over. The dense matrix is
// dropped once its classes are found.
func PoolKernel(store *profile.Store, pool Pool, attrs []profile.Attribute, exponent float64) (*classify.Kernel, error) {
	w, err := PoolWeights(store, pool, attrs, exponent)
	if err != nil {
		return nil, err
	}
	return classify.KernelOf(w), nil
}
