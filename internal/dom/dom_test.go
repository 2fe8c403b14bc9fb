package dom

import (
	"testing"
)

func newDoc() *Document {
	return NewDocument("test.html", &Serials{})
}

func TestNewDocument(t *testing.T) {
	d := newDoc()
	if d.Root == nil || d.Root.Tag != "#document" || !d.Root.InDoc {
		t.Fatalf("bad root: %v", d.Root)
	}
}

func TestSerialsUnique(t *testing.T) {
	s := &Serials{}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		n := s.Next()
		if n == 0 || seen[n] {
			t.Fatalf("serial %d reused or zero", n)
		}
		seen[n] = true
	}
}

func TestAppendAndByID(t *testing.T) {
	d := newDoc()
	div := d.NewNode("div")
	div.Attrs["id"] = "a"
	if d.GetElementByID("a") != nil {
		t.Error("detached node indexed")
	}
	d.Root.AppendChild(div)
	if d.GetElementByID("a") != div {
		t.Error("inserted node not indexed")
	}
	d.Root.RemoveChild(div)
	if d.GetElementByID("a") != nil {
		t.Error("removed node still indexed")
	}
}

func TestSubtreeIndexing(t *testing.T) {
	d := newDoc()
	outer := d.NewNode("div")
	inner := d.NewNode("span")
	inner.Attrs["id"] = "deep"
	outer.AppendChild(inner)
	d.Root.AppendChild(outer)
	if d.GetElementByID("deep") != inner {
		t.Error("nested node not indexed on subtree insertion")
	}
	d.Root.RemoveChild(outer)
	if d.GetElementByID("deep") != nil {
		t.Error("nested node still indexed after subtree removal")
	}
}

func TestDuplicateIDsFirstInOrder(t *testing.T) {
	d := newDoc()
	a := d.NewNode("div")
	a.Attrs["id"] = "dup"
	b := d.NewNode("div")
	b.Attrs["id"] = "dup"
	d.Root.AppendChild(b) // inserted first but created second
	d.Root.AppendChild(a)
	got := d.GetElementByID("dup")
	if got != a {
		// Serial order approximates document creation order.
		t.Logf("duplicate id resolution picked %v", got)
	}
	if got == nil {
		t.Fatal("duplicate id found nothing")
	}
}

func TestInsertBefore(t *testing.T) {
	d := newDoc()
	p := d.NewNode("p")
	q := d.NewNode("q")
	r := d.NewNode("r")
	d.Root.AppendChild(p)
	d.Root.AppendChild(r)
	idx := d.Root.InsertBefore(q, r)
	if idx != 1 {
		t.Errorf("InsertBefore index = %d, want 1", idx)
	}
	if d.Root.Kids[1] != q || d.Root.Kids[2] != r {
		t.Errorf("order wrong: %v", d.Root.Kids)
	}
}

func TestMoveReparents(t *testing.T) {
	d := newDoc()
	a := d.NewNode("a")
	b := d.NewNode("b")
	child := d.NewNode("span")
	d.Root.AppendChild(a)
	d.Root.AppendChild(b)
	a.AppendChild(child)
	b.AppendChild(child) // move
	if child.Parent != b || len(a.Kids) != 0 {
		t.Error("move did not reparent")
	}
}

func TestRemoveChildNotChild(t *testing.T) {
	d := newDoc()
	a := d.NewNode("a")
	if d.Root.RemoveChild(a) != -1 {
		t.Error("removing a non-child should return -1")
	}
}

func TestElementsByTagAndName(t *testing.T) {
	d := newDoc()
	for i := 0; i < 3; i++ {
		img := d.NewNode("img")
		img.Attrs["name"] = "pic"
		d.Root.AppendChild(img)
	}
	d.Root.AppendChild(d.NewNode("div"))
	if got := len(d.ElementsByTag("img")); got != 3 {
		t.Errorf("ElementsByTag(img) = %d, want 3", got)
	}
	if got := len(d.ElementsByTag("IMG")); got != 3 {
		t.Errorf("tag lookup not case-insensitive: %d", got)
	}
	if got := len(d.ElementsByName("pic")); got != 3 {
		t.Errorf("ElementsByName = %d, want 3", got)
	}
}

func TestCollections(t *testing.T) {
	d := newDoc()
	form := d.NewNode("form")
	img := d.NewNode("img")
	link := d.NewNode("a")
	link.Attrs["href"] = "x"
	bare := d.NewNode("a") // no href: not in links
	script := d.NewNode("script")
	for _, n := range []*Node{form, img, link, bare, script} {
		d.Root.AppendChild(n)
	}
	if len(d.Collection("forms")) != 1 || len(d.Collection("images")) != 1 ||
		len(d.Collection("scripts")) != 1 {
		t.Error("basic collections wrong")
	}
	if len(d.Collection("links")) != 1 {
		t.Errorf("links = %d, want 1 (href required)", len(d.Collection("links")))
	}
	if d.Collection("nonsense") != nil {
		t.Error("unknown collection should be nil")
	}
}

func TestListeners(t *testing.T) {
	d := newDoc()
	n := d.NewNode("button")
	n.AddListener("click", &Listener{HandlerID: 5, Fn: "a"})
	n.AddListener("click", &Listener{HandlerID: 6, Fn: "b"})
	if got := len(n.Listeners("click")); got != 2 {
		t.Fatalf("listeners = %d, want 2", got)
	}
	if !n.RemoveListener("click", 5) {
		t.Error("remove failed")
	}
	if n.RemoveListener("click", 5) {
		t.Error("double remove succeeded")
	}
	if got := len(n.Listeners("click")); got != 1 {
		t.Errorf("listeners after remove = %d, want 1", got)
	}
}

func TestSlotListenerReplaced(t *testing.T) {
	d := newDoc()
	n := d.NewNode("img")
	n.AddListener("load", &Listener{HandlerID: 0, Fn: "first"})
	n.AddListener("load", &Listener{HandlerID: 0, Fn: "second"})
	ls := n.Listeners("load")
	if len(ls) != 1 || ls[0].Fn != "second" {
		t.Errorf("slot listener not replaced in place: %v", ls)
	}
}

func TestListenerEventsSorted(t *testing.T) {
	d := newDoc()
	n := d.NewNode("div")
	n.AddListener("mouseover", &Listener{HandlerID: 1})
	n.AddListener("click", &Listener{HandlerID: 2})
	n.AddListener("blur", &Listener{HandlerID: 3})
	got := n.ListenerEvents()
	want := []string{"blur", "click", "mouseover"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("ListenerEvents = %v, want %v", got, want)
	}
}

func TestPath(t *testing.T) {
	d := newDoc()
	a := d.NewNode("a")
	b := d.NewNode("b")
	c := d.NewNode("c")
	d.Root.AppendChild(a)
	a.AppendChild(b)
	b.AppendChild(c)
	path := c.Path()
	if len(path) != 4 || path[0] != d.Root || path[3] != c {
		t.Errorf("path = %v", path)
	}
}

func TestOuterHTML(t *testing.T) {
	d := newDoc()
	div := d.NewNode("div")
	div.Attrs["id"] = "x"
	div.AppendChild(d.NewText("hello"))
	got := div.OuterHTML()
	want := `<div id="x">hello</div>`
	if got != want {
		t.Errorf("OuterHTML = %q, want %q", got, want)
	}
}

func TestIsFormField(t *testing.T) {
	d := newDoc()
	for tag, want := range map[string]bool{
		"input": true, "textarea": true, "select": true,
		"div": false, "a": false,
	} {
		if d.NewNode(tag).IsFormField() != want {
			t.Errorf("IsFormField(%s) != %v", tag, want)
		}
	}
}

func TestInsertIntoSelfPanics(t *testing.T) {
	d := newDoc()
	n := d.NewNode("div")
	defer func() {
		if recover() == nil {
			t.Error("inserting node into itself did not panic")
		}
	}()
	n.AppendChild(n)
}

// TestStringLabelFollowsInputs: String memoizes its label, so the memo
// must follow the inputs it reads — the id attribute for elements, the
// text for text nodes.
func TestStringLabelFollowsInputs(t *testing.T) {
	d := newDoc()
	div := d.NewNode("div")
	anon := div.String()
	if want := "<div #2>"; anon != want {
		t.Fatalf("anonymous element = %q, want %q", anon, want)
	}
	div.Attrs["id"] = "menu"
	if got, want := div.String(), `<div id="menu">`; got != want {
		t.Fatalf("after setting id: %q, want %q", got, want)
	}
	div.Attrs["id"] = "nav"
	if got, want := div.String(), `<div id="nav">`; got != want {
		t.Fatalf("after changing id: %q, want %q", got, want)
	}
	delete(div.Attrs, "id")
	if got := div.String(); got != anon {
		t.Fatalf("after removing id: %q, want %q", got, anon)
	}

	txt := d.NewText("hello")
	if got, want := txt.String(), `#text("hello")`; got != want {
		t.Fatalf("text node = %q, want %q", got, want)
	}
	txt.Text = "a considerably longer text"
	if got, want := txt.String(), `#text("a considerably longe…")`; got != want {
		t.Fatalf("after changing text: %q, want %q", got, want)
	}
	txt.Text = ""
	if got, want := txt.String(), `#text("")`; got != want {
		t.Fatalf("after emptying text: %q, want %q", got, want)
	}
}
