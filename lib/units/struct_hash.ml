type t = { h0 : int64; h1 : int64 }

(* Two independently seeded 64-bit lanes, each an LCG step followed by the
   splitmix64 finalizer. One lane would already make accidental collisions
   vanishingly rare at cache scale; two keep the key width at 128 bits,
   matching the MD5 digests these hashes replaced, so the collision budget
   of the evaluation cache is unchanged. *)

(* [@inline] keeps each step's intermediate lanes unboxed: a step then
   allocates the result record and its two lanes, nothing else. *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let[@inline] step mult acc v = mix (Int64.add (Int64.mul acc mult) v)
let m0 = 0x9e3779b97f4a7c15L
let m1 = 0xc2b2ae3d27d4eb4fL
let init = { h0 = 0x5de493661e75a331L; h1 = 0x27220a95fe7b0d63L }
let[@inline] int64 t v = { h0 = step m0 t.h0 v; h1 = step m1 t.h1 v }
let int t v = int64 t (Int64.of_int v)
let bool t v = int t (if v then 1 else 0)
let float t v = int64 t (Int64.bits_of_float v)

let string t s =
  let n = String.length s in
  let t = ref (int t n) in
  let i = ref 0 in
  while !i + 8 <= n do
    t := int64 !t (String.get_int64_le s !i);
    i := !i + 8
  done;
  let tail = ref 0L in
  while !i < n do
    tail := Int64.logor (Int64.shift_left !tail 8)
              (Int64.of_int (Char.code s.[!i]));
    incr i
  done;
  if n land 7 <> 0 then t := int64 !t !tail;
  !t

let option f t = function None -> int t 0 | Some v -> f (int t 1) v
let list f t xs = List.fold_left f (int t (List.length xs)) xs

(* A finished digest is two more leaves, [int64 (int64 acc d.h0) d.h1]
   written out so that no intermediate record is built: composite keys
   stay on the same mixing as the walks that produced their parts. *)
let combine acc d =
  {
    h0 = step m0 (step m0 acc.h0 d.h0) d.h1;
    h1 = step m1 (step m1 acc.h1 d.h0) d.h1;
  }

(* Unsigned, lane by lane: the order of the hex renderings. *)
let compare a b =
  let c = Int64.unsigned_compare a.h0 b.h0 in
  if c <> 0 then c else Int64.unsigned_compare a.h1 b.h1

let to_key t =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 t.h0;
  Bytes.set_int64_le b 8 t.h1;
  Bytes.unsafe_to_string b

let to_hex t = Printf.sprintf "%016Lx%016Lx" t.h0 t.h1
