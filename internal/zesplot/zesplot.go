// Package zesplot reimplements the paper's zesplot visualization (§3): a
// squarified-treemap rendering of IPv6 prefixes where each prefix is a
// rectangle, ordered by {prefix-size, ASN} so large prefixes land in the
// top-left and the same input always lands in the same spot. Rectangles
// are colored by address/response counts on a log scale. Both the sized
// variant (area from prefix length) and the unsized variant (equal boxes,
// Figures 3b/5/6) are supported. Output is SVG.
package zesplot

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
)

// Item is one prefix to plot.
type Item struct {
	Prefix ip6.Prefix
	ASN    bgp.ASN
	// Value colors the rectangle (e.g. number of hitlist addresses or
	// responses inside the prefix). Zero renders white ("no addresses").
	Value float64
}

// Rect is a laid-out rectangle.
type Rect struct {
	X, Y, W, H float64
	Item       Item
}

// The canvas is 1000×600, with the title in a 24-unit band above it.
const (
	width  = 1000.0
	height = 600.0
)

// Options controls layout and rendering.
type Options struct {
	// Sized weights rectangle areas by prefix size (log scale); unsized
	// gives every prefix the same area (the pattern-spotting variant).
	Sized bool
	// Title is rendered at the top of the SVG.
	Title string
}

// weight returns the area weight of a prefix: sized plots give shorter
// prefixes (larger networks) more area, compressed logarithmically so a
// /19 does not drown out everything.
func weight(p ip6.Prefix, sized bool) float64 {
	if !sized {
		return 1
	}
	// /19 → ~110, /32 → ~97, /64 → 65, /128 → 1.
	return float64(129 - p.Bits())
}

// Sort orders items the zesplot way: by prefix length ascending (big
// prefixes first), then ASN, then address — so a prefix keeps its spot
// across plots with the same input.
func Sort(items []Item) {
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.Prefix.Bits() != b.Prefix.Bits() {
			return a.Prefix.Bits() < b.Prefix.Bits()
		}
		if a.ASN != b.ASN {
			return a.ASN < b.ASN
		}
		return a.Prefix.Addr().Less(b.Prefix.Addr())
	})
}

// Layout computes the squarified treemap (Bruls et al.) of the items,
// after zesplot ordering. The caller's slice is re-ordered in place.
func Layout(items []Item, opt Options) []Rect {
	Sort(items)
	if len(items) == 0 {
		return nil
	}
	total := 0.0
	weights := make([]float64, len(items))
	for i, it := range items {
		weights[i] = weight(it.Prefix, opt.Sized)
		total += weights[i]
	}
	// Normalize weights to canvas area.
	area := width * height
	for i := range weights {
		weights[i] *= area / total
	}

	out := make([]Rect, 0, len(items))
	x, y, w, h := 0.0, 0.0, width, height
	i := 0
	for i < len(items) {
		// Fill one row along the shorter side, adding items while the
		// worst aspect ratio improves (the squarify criterion).
		short := math.Min(w, h)
		rowSum := weights[i]
		rowEnd := i + 1
		worst := worstAspect(weights[i:rowEnd], rowSum, short)
		for rowEnd < len(items) {
			nextSum := rowSum + weights[rowEnd]
			nw := worstAspect(weights[i:rowEnd+1], nextSum, short)
			if nw > worst {
				break
			}
			worst = nw
			rowSum = nextSum
			rowEnd++
		}
		// Lay the row: vertical strip when width >= height, else
		// horizontal — which alternates naturally as the free rectangle
		// shrinks, matching the "vertical row, then horizontal row"
		// description in §3.
		thick := rowSum / short
		off := 0.0
		for j := i; j < rowEnd; j++ {
			ext := weights[j] / thick
			var r Rect
			if w >= h {
				r = Rect{X: x, Y: y + off, W: thick, H: ext, Item: items[j]}
			} else {
				r = Rect{X: x + off, Y: y, W: ext, H: thick, Item: items[j]}
			}
			out = append(out, r)
			off += ext
		}
		if w >= h {
			x += thick
			w -= thick
		} else {
			y += thick
			h -= thick
		}
		if w < 0 {
			w = 0
		}
		if h < 0 {
			h = 0
		}
		i = rowEnd
	}
	return out
}

func worstAspect(ws []float64, sum, short float64) float64 {
	if sum <= 0 || short <= 0 {
		return math.Inf(1)
	}
	thick := sum / short
	worst := 0.0
	for _, w := range ws {
		ext := w / thick
		var ar float64
		if ext > thick {
			ar = ext / thick
		} else {
			ar = thick / ext
		}
		if ar > worst {
			worst = ar
		}
	}
	return worst
}

// color maps a value to a white→yellow→red heat ramp on a log scale
// relative to max.
func color(v, max float64) string {
	if v <= 0 {
		return "#ffffff"
	}
	if max <= 1 {
		max = 1
	}
	t := math.Log1p(v) / math.Log1p(max) // 0..1
	// ramp: white (1,1,1) → yellow (1,0.85,0.2) → red (0.85,0.1,0.1)
	var r, g, b float64
	if t < 0.5 {
		u := t * 2
		r, g, b = 1, 1-0.15*u, 1-0.8*u
	} else {
		u := (t - 0.5) * 2
		r, g, b = 1-0.15*u, 0.85-0.75*u, 0.2-0.1*u
	}
	return fmt.Sprintf("#%02x%02x%02x", int(r*255), int(g*255), int(b*255))
}

// SVG renders the items to an SVG document.
func SVG(items []Item, opt Options) string {
	rects := Layout(items, opt)
	max := 0.0
	for _, r := range rects {
		if r.Item.Value > max {
			max = r.Item.Value
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`,
		width, height+24, width, height+24)
	b.WriteString("\n")
	if opt.Title != "" {
		fmt.Fprintf(&b, `<text x="4" y="16" font-family="sans-serif" font-size="14">%s</text>`, xmlEscape(opt.Title))
		b.WriteString("\n")
	}
	for _, r := range rects {
		fmt.Fprintf(&b,
			`<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="#888" stroke-width="0.3"><title>%s AS%d: %.0f</title></rect>`,
			r.X, r.Y+24, r.W, r.H, color(r.Item.Value, max),
			xmlEscape(r.Item.Prefix.String()), r.Item.ASN, r.Item.Value)
		b.WriteString("\n")
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
