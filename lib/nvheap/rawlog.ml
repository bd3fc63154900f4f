exception Log_full

type mode = Durable | Cached

type event = Event.log = Append of { kind : int; n_values : int } | Truncate

type t = {
  nvram : Nvram.t;
  base : int;
  words : int;  (* region capacity in 64-bit words, header included *)
  mutable gen : int;
  mutable head : int;  (* next free word index; word 0 is the gen word *)
}

(* Events are built only when someone listens. *)
let observed t = Wsp_events.Bus.active (Nvram.bus t.nvram)
let emit t ev = Wsp_events.Bus.publish (Nvram.bus t.nvram) (Event.Log ev)

(* Word encoding: (chunk : 32 bits) << 16 | generation : 16 bits.
   Each 64-bit logical value occupies two words (low chunk, high chunk). *)

let encode_word ~gen chunk =
  Int64.logor
    (Int64.shift_left (Int64.of_int32 chunk) 16)
    (Int64.of_int (gen land 0xffff))

let decode_word w =
  let gen = Int64.to_int (Int64.logand w 0xffffL) in
  let chunk = Int64.to_int32 (Int64.shift_right_logical w 16) in
  (gen, chunk)

let word_addr t i = t.base + (8 * i)

let write_word t ~mode i w =
  match mode with
  | Durable -> Nvram.write_u64_nt t.nvram ~addr:(word_addr t i) w
  | Cached -> Nvram.write_u64 t.nvram ~addr:(word_addr t i) w

let read_word t i = Nvram.read_u64 t.nvram ~addr:(word_addr t i)

let gen_of_header w = Int64.to_int (Int64.logand w 0xffffL)

let write_gen t ~mode gen =
  write_word t ~mode 0 (Int64.of_int (gen land 0xffff));
  if mode = Durable then Nvram.fence t.nvram

let create nvram ~base ~len =
  if base mod 8 <> 0 || len < 64 then invalid_arg "Rawlog.create: bad region";
  let t = { nvram; base; words = len / 8; gen = 1; head = 1 } in
  write_gen t ~mode:Durable 1;
  t

let base t = t.base
let capacity_words t = t.words
let used_words t = t.head - 1
let generation t = t.gen

(* Record layout: header word whose chunk packs (kind:8 | n_values:24),
   then 2 words per logical value. *)

let header_chunk ~kind ~n =
  assert (kind >= 0 && kind < 256 && n >= 0 && n < 1 lsl 24);
  Int32.of_int ((kind lsl 24) lor n)

let decode_header chunk =
  let v = Int32.to_int (Int32.logand chunk 0xffffffl) in
  let kind = Int32.to_int (Int32.shift_right_logical chunk 24) land 0xff in
  (kind, v)

let record_words n_values = 1 + (2 * n_values)

let append t ~mode ~kind values =
  let n = Array.length values in
  let needed = record_words n in
  if t.head + needed > t.words then raise Log_full;
  if observed t then emit t (Append { kind; n_values = n });
  write_word t ~mode t.head (encode_word ~gen:t.gen (header_chunk ~kind ~n));
  Array.iteri
    (fun i v ->
      let lo = Int64.to_int32 (Int64.logand v 0xffffffffL) in
      let hi = Int64.to_int32 (Int64.shift_right_logical v 32) in
      write_word t ~mode (t.head + 1 + (2 * i)) (encode_word ~gen:t.gen lo);
      write_word t ~mode (t.head + 2 + (2 * i)) (encode_word ~gen:t.gen hi))
    values;
  if mode = Durable then Nvram.fence t.nvram;
  t.head <- t.head + needed

let truncate t ~mode =
  if observed t then emit t Truncate;
  t.gen <- (t.gen + 1) land 0xffff;
  if t.gen = 0 then t.gen <- 1;
  t.head <- 1;
  write_gen t ~mode t.gen

let value_of_chunks lo hi =
  Int64.logor
    (Int64.logand (Int64.of_int32 lo) 0xffffffffL)
    (Int64.shift_left (Int64.logand (Int64.of_int32 hi) 0xffffffffL) 32)

let scan_with t read_word_at =
  let gen = gen_of_header (read_word_at 0) in
  let rec records i acc =
    if i >= t.words then List.rev acc
    else
      let g, chunk = decode_word (read_word_at i) in
      if g <> gen then List.rev acc
      else
        let kind, n = decode_header chunk in
        if i + record_words n > t.words then List.rev acc
        else
          let values = Array.make n 0L in
          let torn = ref false in
          for v = 0 to n - 1 do
            let g_lo, lo = decode_word (read_word_at (i + 1 + (2 * v))) in
            let g_hi, hi = decode_word (read_word_at (i + 2 + (2 * v))) in
            if g_lo <> gen || g_hi <> gen then torn := true
            else values.(v) <- value_of_chunks lo hi
          done;
          if !torn then List.rev acc
          else records (i + record_words n) ((kind, values) :: acc)
  in
  records 1 []

let scan t = scan_with t (read_word t)

let scan_persistent t =
  scan_with t (fun i -> Nvram.peek_u64 t.nvram ~addr:(word_addr t i))

let attach nvram ~base ~len =
  let t = { nvram; base; words = len / 8; gen = 1; head = 1 } in
  t.gen <- gen_of_header (read_word t 0);
  if t.gen = 0 then begin
    (* Never formatted: format now. *)
    t.gen <- 1;
    write_gen t ~mode:Durable 1
  end;
  let records = scan t in
  let used =
    List.fold_left (fun acc (_, values) -> acc + record_words (Array.length values)) 0 records
  in
  t.head <- 1 + used;
  t
