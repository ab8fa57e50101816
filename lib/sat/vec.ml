type t = { mutable a : int array; mutable n : int }

(* [Array.blit] into an array of the major heap goes through the write
   barrier element by element; a loop over ints stores directly.  Safe
   for a forward move within one array ([doff <= soff]). *)
let blit_ints (src : int array) soff (dst : int array) doff n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst (doff + i) (Array.unsafe_get src (soff + i))
  done

let create ?(cap = 16) () = { a = Array.make (max cap 1) 0; n = 0 }
let size v = v.n

let get v i =
  assert (i >= 0 && i < v.n);
  Array.unsafe_get v.a i

let unsafe_get v i = Array.unsafe_get v.a i

let set v i x =
  assert (i >= 0 && i < v.n);
  Array.unsafe_set v.a i x

let grow v =
  (* The backing array can be empty (e.g. [of_array [||]]); doubling 0
     stays 0 forever and the subsequent unsafe_set writes out of bounds,
     so clamp the new capacity to at least 1. *)
  let cap = Array.length v.a in
  let a' = Array.make (max 1 (2 * cap)) 0 in
  Array.blit v.a 0 a' 0 v.n;
  v.a <- a'

let reserve v n =
  if n > Array.length v.a then begin
    let a' = Array.make n 0 in
    Array.blit v.a 0 a' 0 v.n;
    v.a <- a'
  end

let push v x =
  if v.n = Array.length v.a then grow v;
  Array.unsafe_set v.a v.n x;
  v.n <- v.n + 1

let pop v =
  assert (v.n > 0);
  v.n <- v.n - 1;
  Array.unsafe_get v.a v.n

let last v =
  assert (v.n > 0);
  Array.unsafe_get v.a (v.n - 1)

let clear v = v.n <- 0

let shrink v n =
  assert (n >= 0 && n <= v.n);
  v.n <- n

let iter f v =
  for i = 0 to v.n - 1 do
    f (Array.unsafe_get v.a i)
  done

let to_array v = Array.sub v.a 0 v.n

let of_array a =
  let n = Array.length a in
  if n = 0 then create ~cap:1 ()
  else { a = Array.copy a; n }

let mem v x =
  let rec loop i = i < v.n && (v.a.(i) = x || loop (i + 1)) in
  loop 0

let remove v x =
  let rec loop i =
    if i < v.n then
      if v.a.(i) = x then begin
        v.a.(i) <- v.a.(v.n - 1);
        v.n <- v.n - 1
      end
      else loop (i + 1)
  in
  loop 0
