package workload

// Shape-polymorphism workload family (DESIGN.md §14): property-access
// sites spanning the shape-speculation ladder. shape_mono is the
// tentpole case — two classes with identical flattened layouts, so the
// hot access sites are class-polymorphic but shape-monomorphic and
// compile to a single shape guard plus fixed-slot accesses. shape_poly
// spreads accesses over three distinct layouts with skewed popularity
// (the polymorphic inline cache's bread and butter), shape_mega over
// eight (past IC capacity, exercising the megamorphic generic
// fallback), and shape_dynamic grows and retypes shapes at runtime
// with undeclared properties and int/double slot ping-pong.

// shapeMono: PointA and PointB flatten to the same (x, y, tag) layout,
// so reads and writes in manhattan/shift see one shape even though the
// receiver class alternates every iteration.
const shapeMono = `
class PointA {
  public $x = 0;
  public $y = 0;
  public $tag = "";
  function __construct($x, $y, $t) { $this->x = $x; $this->y = $y; $this->tag = $t; }
}
class PointB {
  public $x = 0;
  public $y = 0;
  public $tag = "";
  function __construct($x, $y, $t) { $this->x = $x; $this->y = $y; $this->tag = $t; }
}

function manhattan($p) {
  $ax = $p->x < 0 ? -$p->x : $p->x;
  $ay = $p->y < 0 ? -$p->y : $p->y;
  return $ax + $ay;
}

function shiftPoint($p, $d) {
  $p->x = $p->x + $d;
  $p->y = $p->y - $d;
}

$pts = [];
for ($i = 0; $i < 48; $i++) {
  if ($i % 2 == 0) { $pts[] = new PointA($i, -$i, "a"); }
  else { $pts[] = new PointB(-$i, $i, "b"); }
}
$sum = 0;
foreach ($pts as $p) {
  shiftPoint($p, 3);
  $sum += manhattan($p);
}
echo $sum, "\n";
`

// shapePoly: three distinct layouts sharing a $weight property, with
// skewed popularity (roughly 60/30/10) — a 3-entry shape IC where the
// first entry takes most hits.
const shapePoly = `
class Parcel {
  public $weight = 0;
  public $zone = 0;
  function __construct($w, $z) { $this->weight = $w; $this->zone = $z; }
}
class Crate {
  public $pallet = 0;
  public $weight = 0;
  public $sealed = true;
  function __construct($p, $w) { $this->pallet = $p; $this->weight = $w; }
}
class Envelope {
  public $stamp = "";
  public $express = false;
  public $weight = 0;
  function __construct($s, $w) { $this->stamp = $s; $this->weight = $w; }
}

function freight($item, $rate) {
  return $item->weight * $rate;
}

$items = [];
for ($i = 0; $i < 50; $i++) {
  $k = $i % 10;
  if ($k < 6) { $items[] = new Parcel($i % 9 + 1, $i % 4); }
  elseif ($k < 9) { $items[] = new Crate($i % 5, $i % 11 + 2); }
  else { $items[] = new Envelope("s", 1); }
}
$total = 0;
foreach ($items as $it) {
  $total += freight($it, 3);
}
echo $total, "\n";
`

// shapeMega: eight distinct layouts through one access site — more
// shapes than the 4-entry IC holds, so the site goes megamorphic and
// falls back to the generic by-name helper.
const shapeMega = `
class Rec0 { public $val = 0; function __construct($v) { $this->val = $v; } }
class Rec1 { public $p1 = 0; public $val = 0;
  function __construct($v) { $this->val = $v; } }
class Rec2 { public $p1 = 0; public $p2 = 0; public $val = 0;
  function __construct($v) { $this->val = $v; } }
class Rec3 { public $a = ""; public $val = 0;
  function __construct($v) { $this->val = $v; } }
class Rec4 { public $a = ""; public $b = ""; public $val = 0;
  function __construct($v) { $this->val = $v; } }
class Rec5 { public $flag = false; public $val = 0;
  function __construct($v) { $this->val = $v; } }
class Rec6 { public $flag = false; public $extra = 0; public $val = 0;
  function __construct($v) { $this->val = $v; } }
class Rec7 { public $x = 0; public $y = 0; public $z = 0; public $val = 0;
  function __construct($v) { $this->val = $v; } }

function pick($i) {
  $k = $i % 8;
  if ($k == 0) { return new Rec0($i); }
  if ($k == 1) { return new Rec1($i); }
  if ($k == 2) { return new Rec2($i); }
  if ($k == 3) { return new Rec3($i); }
  if ($k == 4) { return new Rec4($i); }
  if ($k == 5) { return new Rec5($i); }
  if ($k == 6) { return new Rec6($i); }
  return new Rec7($i);
}

$sum = 0;
for ($i = 0; $i < 64; $i++) {
  $r = pick($i);
  $sum += $r->val;
}
echo $sum, "\n";
`

// shapeDynamic: undeclared-property appends walk the transition tree
// at runtime, and an int/double slot alternates kinds (bouncing
// between two interned retype siblings instead of growing the tree).
// The read loop is the hidden-class payoff: $count and $size are
// undeclared, so a class-keyed slot table can never serve them — they
// resolve through the 4-entry IC (count x note x size-kind makes
// exactly four layouts).
const shapeDynamic = `
class Bag {
  public $id = 0;
  function __construct($i) { $this->id = $i; }
}

function fill($b, $i) {
  $b->count = $i % 7;
  if ($i % 3 == 0) {
    $b->note = "n" . $i;
  }
  return $b;
}

function measure($b, $i) {
  if ($i % 2 == 0) { $b->size = $i; }
  else { $b->size = $i * 0.5; }
  return $b->size;
}

$bags = [];
$total = 0;
for ($i = 0; $i < 32; $i++) {
  $b = fill(new Bag($i), $i);
  $total += (int)measure($b, $i);
  $bags[] = $b;
}
for ($r = 0; $r < 12; $r++) {
  foreach ($bags as $b) {
    $total += $b->id + $b->count + (int)$b->size;
  }
}
echo $total, "\n";
`
