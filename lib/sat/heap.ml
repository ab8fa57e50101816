type t = {
  mutable heap : int array;   (* heap.(i) = variable at heap slot i, for i < n *)
  mutable n : int;
  mutable pos : int array;    (* variable -> heap slot, or -1 *)
  mutable act : float array;  (* shared with the solver *)
}

let create () = { heap = Array.make 16 0; n = 0; pos = Array.make 16 (-1); act = [||] }
let set_activity h act = h.act <- act
let size h = h.n

let resize_pos h n' =
  let pos' = Array.make n' (-1) in
  Array.blit h.pos 0 pos' 0 (Array.length h.pos);
  h.pos <- pos'

let resize_heap h n' =
  let heap' = Array.make n' 0 in
  Array.blit h.heap 0 heap' 0 h.n;
  h.heap <- heap'

let ensure_pos h v =
  let n = Array.length h.pos in
  if v >= n then resize_pos h (max (2 * n) (v + 1))

let reserve h n =
  if n > Array.length h.pos then resize_pos h n;
  if n > Array.length h.heap then resize_heap h n

let in_heap h v = v < Array.length h.pos && h.pos.(v) >= 0

(* Both sifts carry the moving variable [x] in a hole, as MiniSat does:
   each level moves one variable into the hole, and [x] is stored once,
   where the hole stops.  The comparisons are those of swapping at every
   level, so the order is the same. *)
let sift_up h i =
  let heap = h.heap and pos = h.pos and act = h.act in
  let x = Array.unsafe_get heap i in
  let ax = act.(x) in
  let i = ref i in
  while
    !i > 0
    &&
    let p = Array.unsafe_get heap ((!i - 1) / 2) in
    ax > act.(p)
  do
    let parent = (!i - 1) / 2 in
    let p = Array.unsafe_get heap parent in
    Array.unsafe_set heap !i p;
    pos.(p) <- !i;
    i := parent
  done;
  Array.unsafe_set heap !i x;
  pos.(x) <- !i

(* The child that moves up is the left one unless the right one is
   strictly better. *)
let sift_down h i =
  let heap = h.heap and pos = h.pos and act = h.act and n = h.n in
  let x = Array.unsafe_get heap i in
  let ax = act.(x) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && act.(Array.unsafe_get heap r) > act.(Array.unsafe_get heap l) then r else l
      in
      let vc = Array.unsafe_get heap c in
      if act.(vc) > ax then begin
        Array.unsafe_set heap !i vc;
        pos.(vc) <- !i;
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set heap !i x;
  pos.(x) <- !i

let insert h v =
  ensure_pos h v;
  if h.pos.(v) < 0 then begin
    if h.n = Array.length h.heap then resize_heap h (max 1 (2 * h.n));
    let i = h.n in
    h.heap.(i) <- v;
    h.n <- i + 1;
    sift_up h i
  end

let decrease h v = if in_heap h v then sift_up h h.pos.(v)

let pop h =
  if h.n = 0 then -1
  else begin
    let top = h.heap.(0) in
    h.n <- h.n - 1;
    h.pos.(top) <- -1;
    if h.n > 0 then begin
      h.heap.(0) <- h.heap.(h.n);
      sift_down h 0
    end;
    top
  end

let rebuild h =
  for i = (h.n / 2) - 1 downto 0 do
    sift_down h i
  done
