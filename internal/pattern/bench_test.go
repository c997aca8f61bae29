package pattern

import "testing"

func BenchmarkGeneratePaperPatterns(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, kind := range Kinds {
			MustGenerate(Defaults(kind))
		}
	}
}

func BenchmarkPortionOf(b *testing.B) {
	pat := MustGenerate(Defaults(GFP))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PortionOf(pat.GlobalPortions, i%Len(pat.GlobalPortions))
	}
}
