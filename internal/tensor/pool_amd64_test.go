//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
)

// BenchmarkPoolLayer times the 2×2 stride-2 pool forward of each conv
// block of expt.SmallScale's network (batch 16) on one core, with the
// argmax, once on the AVX2 kernel and once on the Go scan.
func BenchmarkPoolLayer(b *testing.B) {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	hw := 32
	for i, c := range []int{8, 12, 16, 24, 32} {
		planes := 16 * c
		src := Randn(mathx.NewRNG(uint64(i+1)), 1, planes, hw, hw).data
		dst, arg := make([]float64, planes*hw*hw/4), make([]int, planes*hw*hw/4)
		for _, k := range []struct {
			name string
			avx2 bool
		}{{"avx2", true}, {"go", false}} {
			if k.avx2 && !hasAVX2() {
				continue
			}
			b.Run(fmt.Sprintf("conv%d/%s", i+1, k.name), func(b *testing.B) {
				useAVX2 = k.avx2
				for n := 0; n < b.N; n++ {
					MaxPoolPlanes(dst, arg, src, 0, planes, hw, hw, 2, 2, 2, 2)
				}
			})
		}
		hw /= 2
	}
}
