type t = {
  heap : Vec.t;               (* heap.(i) = variable at heap slot i *)
  mutable pos : int array;    (* variable -> heap slot, or -1 *)
  mutable act : float array;  (* shared with the solver *)
}

let create () = { heap = Vec.create (); pos = Array.make 16 (-1); act = [||] }
let set_activity h act = h.act <- act
let size h = Vec.size h.heap

let resize_pos h n' =
  let pos' = Array.make n' (-1) in
  Array.blit h.pos 0 pos' 0 (Array.length h.pos);
  h.pos <- pos'

let ensure_pos h v =
  let n = Array.length h.pos in
  if v >= n then resize_pos h (max (2 * n) (v + 1))

let reserve h n =
  if n > Array.length h.pos then resize_pos h n;
  Vec.reserve h.heap n

let in_heap h v = v < Array.length h.pos && h.pos.(v) >= 0
let better h a b = h.act.(a) > h.act.(b)

let swap h i j =
  let vi = Vec.get h.heap i and vj = Vec.get h.heap j in
  Vec.set h.heap i vj;
  Vec.set h.heap j vi;
  h.pos.(vi) <- j;
  h.pos.(vj) <- i

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if better h (Vec.get h.heap i) (Vec.get h.heap parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let n = Vec.size h.heap in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = if l < n && better h (Vec.get h.heap l) (Vec.get h.heap i) then l else i in
  let best = if r < n && better h (Vec.get h.heap r) (Vec.get h.heap best) then r else best in
  if best <> i then begin
    swap h i best;
    sift_down h best
  end

let insert h v =
  ensure_pos h v;
  if h.pos.(v) < 0 then begin
    Vec.push h.heap v;
    h.pos.(v) <- Vec.size h.heap - 1;
    sift_up h h.pos.(v)
  end

let decrease h v = if in_heap h v then sift_up h h.pos.(v)

let pop h =
  if Vec.size h.heap = 0 then None
  else begin
    let top = Vec.get h.heap 0 in
    let last = Vec.pop h.heap in
    h.pos.(top) <- -1;
    if Vec.size h.heap > 0 then begin
      Vec.set h.heap 0 last;
      h.pos.(last) <- 0;
      sift_down h 0
    end;
    Some top
  end

let rebuild h =
  for i = (Vec.size h.heap / 2) - 1 downto 0 do
    sift_down h i
  done
