package zesplot

import (
	"math"
	"strings"
	"testing"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
)

func sampleItems() []Item {
	return []Item{
		{Prefix: ip6.MustParsePrefix("2001:db8::/48"), ASN: 2, Value: 10},
		{Prefix: ip6.MustParsePrefix("2a00::/19"), ASN: 1, Value: 5000},
		{Prefix: ip6.MustParsePrefix("2001:db9::/32"), ASN: 3, Value: 0},
		{Prefix: ip6.MustParsePrefix("2001:dead::/32"), ASN: 2, Value: 120},
		{Prefix: ip6.MustParsePrefix("2001:db8:1::/64"), ASN: 2, Value: 7},
		{Prefix: ip6.MustParsePrefix("2001:db8:2::/127"), ASN: 9, Value: 1},
	}
}

func TestSortOrder(t *testing.T) {
	items := sampleItems()
	Sort(items)
	// Shortest prefix first (the /19 in the "top-left"), /127 last.
	if items[0].Prefix.Bits() != 19 {
		t.Errorf("first item /%d, want /19", items[0].Prefix.Bits())
	}
	if items[len(items)-1].Prefix.Bits() != 127 {
		t.Errorf("last item /%d, want /127", items[len(items)-1].Prefix.Bits())
	}
	// Same length → ASN ascending.
	for i := 1; i < len(items); i++ {
		a, b := items[i-1], items[i]
		if a.Prefix.Bits() == b.Prefix.Bits() && a.ASN > b.ASN {
			t.Error("ASN tiebreak violated")
		}
	}
}

func TestLayoutCoversCanvas(t *testing.T) {
	for _, sized := range []bool{true, false} {
		items := sampleItems()
		opt := Options{Sized: sized}
		rects := Layout(items, opt)
		if len(rects) != len(items) {
			t.Fatalf("sized=%v: %d rects", sized, len(rects))
		}
		area := 0.0
		for _, r := range rects {
			if r.W < 0 || r.H < 0 {
				t.Fatalf("negative extent: %+v", r)
			}
			if r.X < -1e-6 || r.Y < -1e-6 || r.X+r.W > width+1e-6 || r.Y+r.H > height+1e-6 {
				t.Fatalf("rect outside canvas: %+v", r)
			}
			area += r.W * r.H
		}
		if math.Abs(area-width*height) > 1 {
			t.Errorf("sized=%v: total area %f, want %f", sized, area, width*height)
		}
	}
}

func TestLayoutNoOverlap(t *testing.T) {
	items := sampleItems()
	rects := Layout(items, Options{Sized: true})
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			a, b := rects[i], rects[j]
			xOverlap := math.Min(a.X+a.W, b.X+b.W) - math.Max(a.X, b.X)
			yOverlap := math.Min(a.Y+a.H, b.Y+b.H) - math.Max(a.Y, b.Y)
			if xOverlap > 1e-6 && yOverlap > 1e-6 {
				t.Fatalf("rects %d and %d overlap: %+v %+v", i, j, a, b)
			}
		}
	}
}

func TestUnsizedEqualAreas(t *testing.T) {
	items := sampleItems()
	rects := Layout(items, Options{Sized: false})
	want := width * height / float64(len(items))
	for _, r := range rects {
		if math.Abs(r.W*r.H-want) > 1e-6 {
			t.Errorf("unsized area %f, want %f", r.W*r.H, want)
		}
	}
}

func TestSizedLargerPrefixBigger(t *testing.T) {
	items := sampleItems()
	rects := Layout(items, Options{Sized: true})
	var a19, a127 float64
	for _, r := range rects {
		switch r.Item.Prefix.Bits() {
		case 19:
			a19 = r.W * r.H
		case 127:
			a127 = r.W * r.H
		}
	}
	if a19 <= a127 {
		t.Errorf("/19 area %f not bigger than /127 area %f", a19, a127)
	}
}

func TestStablePlacement(t *testing.T) {
	// Same input prefixes → same spot, regardless of values.
	a := sampleItems()
	b := sampleItems()
	for i := range b {
		b[i].Value *= 42
	}
	ra := Layout(a, Options{Sized: true})
	rb := Layout(b, Options{Sized: true})
	for i := range ra {
		if ra[i].X != rb[i].X || ra[i].Y != rb[i].Y || ra[i].Item.Prefix != rb[i].Item.Prefix {
			t.Fatalf("placement moved for %v", ra[i].Item.Prefix)
		}
	}
}

func TestAspectRatiosReasonable(t *testing.T) {
	// Squarified layout on many equal items should stay near-square.
	var items []Item
	base := ip6.MustParsePrefix("2001:db8::/32")
	for i := uint64(0); i < 100; i++ {
		items = append(items, Item{Prefix: base.Subprefix(48, i), ASN: bgp.ASN(i % 7), Value: float64(i)})
	}
	rects := Layout(items, Options{Sized: false})
	bad := 0
	for _, r := range rects {
		ar := r.W / r.H
		if ar < 1 {
			ar = 1 / ar
		}
		if ar > 8 {
			bad++
		}
	}
	if bad > 5 {
		t.Errorf("%d/100 rectangles have aspect ratio > 8", bad)
	}
}

func TestSVGOutput(t *testing.T) {
	items := sampleItems()
	svg := SVG(items, Options{Title: "Hitlist & <prefixes>", Sized: true})
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Fatal("not an SVG document")
	}
	if strings.Count(svg, "<rect") != len(items) {
		t.Errorf("rect count = %d", strings.Count(svg, "<rect"))
	}
	if !strings.Contains(svg, "Hitlist &amp; &lt;prefixes&gt;") {
		t.Error("title not escaped")
	}
	// Zero-value prefix rendered white.
	if !strings.Contains(svg, "#ffffff") {
		t.Error("no white rectangle for empty prefix")
	}
}

func TestColorRamp(t *testing.T) {
	if color(0, 100) != "#ffffff" {
		t.Error("zero not white")
	}
	low, mid, high := color(1, 10000), color(100, 10000), color(10000, 10000)
	if low == mid || mid == high || low == high {
		t.Error("color ramp not monotone-ish")
	}
	if high != color(10000, 10000) {
		t.Error("color not deterministic")
	}
}

func TestLayoutEmpty(t *testing.T) {
	if r := Layout(nil, Options{}); r != nil {
		t.Error("empty layout should be nil")
	}
}

func BenchmarkLayout(b *testing.B) {
	var items []Item
	base := ip6.MustParsePrefix("2000::/12")
	for i := uint64(0); i < 5000; i++ {
		items = append(items, Item{Prefix: base.Subprefix(32+4*int(i%5), i), ASN: bgp.ASN(i), Value: float64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Layout(items, Options{Sized: true})
	}
}
