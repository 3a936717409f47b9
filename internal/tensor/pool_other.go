//go:build !amd64 || purego

package tensor

// maxPool2x2 has no kernel off amd64: maxPoolGo pools every window.
func maxPool2x2(dst []float64, argmax []int, src []float64, p0, p1, h, w int) int { return 0 }

// maxPoolGrad2x2 has no kernel off amd64.
func maxPoolGrad2x2(dx, grad []float64, argmax []int, p0, p1, h, w int) bool { return false }
