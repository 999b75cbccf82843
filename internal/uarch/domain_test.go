package uarch

import (
	"errors"
	"strings"
	"testing"
)

// Every built-in domain must round-trip every valid point through both
// encodings: point → name → point and point → index → point. The
// search, the service streaming and the artifact naming all lean on
// these encodings being exact inverses.
func TestDomainRoundTripAllPoints(t *testing.T) {
	for _, d := range Domains() {
		pts := d.EnumeratePoints()
		if int64(len(pts)) != d.Cardinality() {
			t.Fatalf("%s: EnumeratePoints=%d, Cardinality=%d", d.Name, len(pts), d.Cardinality())
		}
		for _, pt := range pts {
			name, err := d.PointName(pt)
			if err != nil {
				t.Fatalf("%s: PointName(%v): %v", d.Name, pt, err)
			}
			back, err := d.ParsePoint(name)
			if err != nil {
				t.Fatalf("%s: ParsePoint(%q): %v", d.Name, name, err)
			}
			if !equalPoints(pt, back) {
				t.Fatalf("%s: name round trip %v -> %q -> %v", d.Name, pt, name, back)
			}
			idx, err := d.PointIndex(pt)
			if err != nil {
				t.Fatalf("%s: PointIndex(%v): %v", d.Name, pt, err)
			}
			dec, err := d.PointAt(idx)
			if err != nil {
				t.Fatalf("%s: PointAt(%d): %v", d.Name, idx, err)
			}
			if !equalPoints(pt, dec) {
				t.Fatalf("%s: index round trip %v -> %d -> %v", d.Name, pt, idx, dec)
			}
		}
	}
}

func equalPoints(a, b Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EnumerateSlice walks only the free axes' product, so it must return
// exactly the grid points, in index order, that a brute-force decode
// of every grid index keeps after the constraints and the pins: with
// no pin, with each single axis pinned to each value, and with every
// pair of axes pinned to their last values.
func TestEnumerateSliceMatchesGridFilter(t *testing.T) {
	for _, d := range Domains() {
		var grid []Point
		for idx := int64(0); idx < d.GridSize(); idx++ {
			if pt, err := d.PointAt(idx); err == nil {
				grid = append(grid, pt)
			}
		}
		check := func(pin []int) {
			t.Helper()
			var want []Point
			for _, pt := range grid {
				keep := true
				for i := range pin {
					if pin[i] >= 0 && pt[i] != pin[i] {
						keep = false
					}
				}
				if keep {
					want = append(want, pt)
				}
			}
			got := d.EnumerateSlice(pin)
			if len(got) != len(want) {
				t.Fatalf("%s pin %v: %d points, want %d", d.Name, pin, len(got), len(want))
			}
			for i := range got {
				if !equalPoints(got[i], want[i]) {
					t.Fatalf("%s pin %v: point %d is %v, want %v", d.Name, pin, i, got[i], want[i])
				}
			}
		}
		axes := d.Axes()
		free := func() []int {
			pin := make([]int, len(axes))
			for i := range pin {
				pin[i] = -1
			}
			return pin
		}
		check(nil)
		check(free())
		for a := range axes {
			for v := 0; v < axes[a].Card(); v++ {
				pin := free()
				pin[a] = v
				check(pin)
			}
			for b := a + 1; b < len(axes); b++ {
				pin := free()
				pin[a], pin[b] = axes[a].Card()-1, axes[b].Card()-1
				check(pin)
			}
		}
		if got := len(d.EnumeratePoints()); int64(got) != d.Cardinality() {
			t.Fatalf("%s: EnumeratePoints=%d, Cardinality=%d", d.Name, got, d.Cardinality())
		}
	}
}

// The built-in domains have the cardinalities the exploration stack
// advertises: Table 2's 192 points and the extended space's 3072 valid
// points of a 3456-point grid.
func TestBuiltinDomainCardinalities(t *testing.T) {
	if got := Table2Domain().Cardinality(); got != 192 {
		t.Fatalf("table2 cardinality = %d, want 192", got)
	}
	d := ExtendedDomain()
	if got := d.GridSize(); got != 3456 {
		t.Fatalf("extended grid = %d, want 3456", got)
	}
	if got := d.Cardinality(); got != 3072 {
		t.Fatalf("extended cardinality = %d, want 3072", got)
	}
}

// Every rejection — bad indices, bad arity, out-of-range axis values,
// unknown names, trailing garbage, constraint violations, unknown
// domains — must be typed: errors.Is(err, ErrOutOfDomain).
func TestDomainRejectionsAreTyped(t *testing.T) {
	d := ExtendedDomain()
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error", what)
		}
		if !errors.Is(err, ErrOutOfDomain) {
			t.Fatalf("%s: error %v does not wrap ErrOutOfDomain", what, err)
		}
	}
	_, err := d.PointAt(-1)
	check("PointAt(-1)", err)
	_, err = d.PointAt(d.GridSize())
	check("PointAt(grid)", err)
	check("Validate(short point)", d.Validate(Point{0, 0}))
	bad := make(Point, len(d.Axes()))
	bad[1] = d.Axes()[1].Card()
	check("Validate(out-of-range axis)", d.Validate(bad))
	_, err = d.ParsePoint("nonsense")
	check("ParsePoint(nonsense)", err)
	name, err := d.PointName(make(Point, len(d.Axes())))
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.ParsePoint(name + "x")
	check("ParsePoint(trailing)", err)
	// Overdrive on the 5-stage pipeline violates the cross-axis
	// constraint, whichever way the point arrives.
	_, err = d.PointOfValues("5", "1", "128", "8", "gshare", "16", "2", "1.2")
	check("PointOfValues(constraint violation)", err)
	viol := make(Point, len(d.Axes()))
	ax, fi, ok := d.AxisByName("fscale")
	if !ok {
		t.Fatal("no fscale axis")
	}
	viol[fi] = ax.Card() - 1 // 1.2 with the 5-stage depth at index 0
	check("Validate(constraint violation)", d.Validate(viol))
	idx := int64(0)
	for i := range d.Axes() {
		idx = idx*int64(d.Axes()[i].Card()) + int64(viol[i])
	}
	_, err = d.PointAt(idx)
	check("PointAt(constraint violation)", err)
	_, err = DomainByName("no-such-space")
	check("DomainByName", err)
	if !strings.Contains(err.Error(), "table2") || !strings.Contains(err.Error(), "extended") {
		t.Fatalf("DomainByName rejection does not list the valid names: %v", err)
	}
}

// Filters and decoders accept normalized integer and float spellings
// ("04" is width 4, "1.20" is scale 1.2) but nothing outside the axis.
func TestAxisValueNormalization(t *testing.T) {
	d := ExtendedDomain()
	w, _, _ := d.AxisByName("width")
	if i, err := w.IndexOfValue("04"); err != nil || w.Int(i) != 4 {
		t.Fatalf("IndexOfValue(04) = %d, %v", i, err)
	}
	if _, err := w.IndexOfValue("5"); !errors.Is(err, ErrOutOfDomain) {
		t.Fatalf("IndexOfValue(5) = %v, want ErrOutOfDomain", err)
	}
	f, _, _ := d.AxisByName("fscale")
	if i, err := f.IndexOfValue("1.20"); err != nil || f.Float(i) != 1.2 {
		t.Fatalf("IndexOfValue(1.20) = %d, %v", i, err)
	}
}

// FuzzDomainParsePoint throws arbitrary strings at every built-in
// domain's name parser. Invariants: no panics, every rejection wraps
// ErrOutOfDomain, and anything accepted must re-render to a name that
// parses back to the identical point.
func FuzzDomainParsePoint(f *testing.F) {
	for _, d := range Domains() {
		pts := d.EnumeratePoints()
		for _, pt := range []Point{pts[0], pts[len(pts)/2], pts[len(pts)-1]} {
			name, err := d.PointName(pt)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(name)
		}
	}
	f.Add("d5-w1-l2_512k_8w-gshare-1KB")
	f.Add("d5-w1-l2_512k_8w-gshare-1KBx")
	f.Add("d9-w4-l2_1024k_16w-hybrid-3.5KB-l1_64k_4w-f1.2")
	f.Add("d5--w1")
	f.Add("")
	f.Fuzz(func(t *testing.T, name string) {
		for _, d := range Domains() {
			pt, err := d.ParsePoint(name)
			if err != nil {
				if !errors.Is(err, ErrOutOfDomain) {
					t.Fatalf("%s: ParsePoint(%q) error %v does not wrap ErrOutOfDomain", d.Name, name, err)
				}
				continue
			}
			canon, err := d.PointName(pt)
			if err != nil {
				t.Fatalf("%s: accepted %q but PointName(%v) failed: %v", d.Name, name, pt, err)
			}
			back, err := d.ParsePoint(canon)
			if err != nil {
				t.Fatalf("%s: canonical name %q does not parse: %v", d.Name, canon, err)
			}
			if !equalPoints(pt, back) {
				t.Fatalf("%s: %q -> %v -> %q -> %v", d.Name, name, pt, canon, back)
			}
		}
	})
}
