package fixed

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundtrip(t *testing.T) {
	cases := []struct {
		x float64
		q Q
	}{
		{0, Q15}, {1, Q15}, {-1, Q15}, {0.5, Q15}, {-0.5, Q15},
		{0.123, Q15}, {3.75, Q8}, {-100.25, Q16},
	}
	for _, c := range cases {
		fx := FromFloat(c.x, c.q)
		back := Float(fx, c.q)
		if math.Abs(back-c.x) > 1.0/float64(int64(1)<<c.q) {
			t.Errorf("roundtrip %v Q%d: got %v", c.x, c.q, back)
		}
	}
	if Q15.One() != 32768 || Q8.One() != 256 {
		t.Error("One() wrong")
	}
}

func TestFromFloatRounds(t *testing.T) {
	// Round-to-nearest, both signs.
	if got := FromFloat(1.5/32768, Q15); got != 2 {
		t.Errorf("positive rounding: %d", got)
	}
	if got := FromFloat(-1.5/32768, Q15); got != -2 {
		t.Errorf("negative rounding: %d", got)
	}
}

func TestClamps(t *testing.T) {
	if Clamp16(40000) != 32767 || Clamp16(-40000) != -32768 || Clamp16(5) != 5 {
		t.Error("Clamp16 wrong")
	}
	if Clamp8(200) != 127 || Clamp8(-200) != -128 || Clamp8(-3) != -3 {
		t.Error("Clamp8 wrong")
	}
}

func TestISqrt32Property(t *testing.T) {
	for _, v := range []uint32{0, 1, 2, 3, 4, 15, 16, 17, 1 << 20, 0x7fffffff, 0xffffffff} {
		r := ISqrt32(v)
		if uint64(r)*uint64(r) > uint64(v) || uint64(r+1)*uint64(r+1) <= uint64(v) {
			t.Errorf("ISqrt32(%d) = %d", v, r)
		}
	}
	prop := func(v uint32) bool {
		r := uint64(ISqrt32(v))
		return r*r <= uint64(v) && (r+1)*(r+1) > uint64(v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestLUTMatchesReference(t *testing.T) {
	exp := NewExpNegLUT(Q15, 14, 8.0, 6)
	for _, x := range []float64{0, 0.1, 0.5, 1, 2, 4, 7.5} {
		got := Float(exp.Eval(FromFloat(x, Q15)), 14)
		want := math.Exp(-x)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("expneg(%v) = %v, want %v", x, got, want)
		}
	}
	// Beyond the span it clamps to the asymptote.
	if v := exp.Eval(exp.Span + 1000); v != exp.Values[len(exp.Values)-1] {
		t.Error("no clamp above span")
	}
	if v := exp.Eval(-5); v != exp.Values[0] {
		t.Error("no clamp below zero")
	}

	tanh := NewTanhLUT(Q15, Q15, 4.0, 6)
	for _, x := range []float64{-3, -1, -0.2, 0, 0.2, 1, 3} {
		got := Float(tanh.EvalOdd(FromFloat(x, Q15)), Q15)
		if math.Abs(got-math.Tanh(x)) > 0.01 {
			t.Errorf("tanh(%v) = %v, want %v", x, got, math.Tanh(x))
		}
	}
}

func TestLUTMonotone(t *testing.T) {
	exp := NewExpNegLUT(Q15, 14, 8.0, 6)
	prop := func(a, b int32) bool {
		if a > b {
			a, b = b, a
		}
		return exp.Eval(a) >= exp.Eval(b) // exp(-x) decreasing
	}
	cfg := &quick.Config{MaxCount: 3000, Values: func(v []reflect.Value, r *rand.Rand) {
		v[0] = reflect.ValueOf(int32(r.Intn(1 << 19)))
		v[1] = reflect.ValueOf(int32(r.Intn(1 << 19)))
	}}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestLUTBytes(t *testing.T) {
	l := NewTanhLUT(Q15, Q15, 4.0, 4)
	b := l.Bytes()
	if len(b) != 4*len(l.Values) {
		t.Fatalf("serialized length %d", len(b))
	}
	// Little-endian word 0 must equal Values[0].
	v0 := int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	if v0 != l.Values[0] {
		t.Errorf("word0 = %d, want %d", v0, l.Values[0])
	}
}
